package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bcm"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/findings"
	"repro/internal/fleet"
	"repro/internal/guided"
	"repro/internal/target"
)

// guided-pipeline: one op is one pipeline instance on the byte-only bench:
// guided search to the first finding, guided.Minimizer over the trigger
// window (one cold target.Build world per execution), findings.FromMinimized
// merged into a findings.DB, and a findings.RunSuite replay of the record.
const (
	gpMaxSearch     = 2 * time.Hour
	gpReplayAttempt = 2
	gpProbes        = 4
	gpTrigger       = "215#20"
)

var gpSpec = target.Spec{Target: "bench", Check: bcm.CheckByteOnly, Stop: true}

var gpContext = findings.Context{Target: "bench", BCMCheck: "byte"}

func gpConfig(seed int64) core.Config {
	return core.Config{Seed: seed, Mode: core.ModeGuided, Interval: time.Millisecond}
}

type guidedPipeline struct {
	db    *findings.DB
	intr  *guided.Introspection
	execs int

	builds, minimize, merge, replay timed
	instances                       int
	sendErrors                      uint64
	ttf                             []time.Duration
}

func (g *guidedPipeline) close() {}

// setUp is one cold start: the engine's world and a fresh findings DB.
func (g *guidedPipeline) setUp(r *runner) error {
	if _, err := target.Build(gpSpec, gpConfig(r.seed), target.Options{}); err != nil {
		return err
	}
	db, err := findings.Open(filepath.Join(r.dir, fmt.Sprintf("findings-%d", len(r.setups))))
	g.db = db
	return err
}

// build is target.Build, timed and spanned in the traced pass.
func (g *guidedPipeline) build(r *runner, parent, trial int, cfg core.Config, o target.Options) (*target.Built, error) {
	sp := r.tr.begin("target.Build", parent, trial)
	b, err := target.Build(gpSpec, cfg, o)
	if d := r.tr.end(sp); r.tr != nil {
		g.builds.add(d)
	}
	return b, err
}

func (g *guidedPipeline) op(r *runner, i int) opStats {
	st := opStats{attempted: 1}
	seed := faults.DeriveSeed(r.seed, i)
	cfg := gpConfig(seed)
	root := r.tr.begin("pipeline", -1, i)
	fail := func(format string, args ...any) opStats {
		r.tr.end(root)
		st.failed = 1
		r.failf("instance %d (seed %d): %s", i, seed, fmt.Sprintf(format, args...))
		return st
	}
	t0 := time.Now()

	// Guided search to the first finding.
	var o target.Options
	if r.tr != nil {
		if g.intr == nil {
			g.intr = guided.NewIntrospection()
		}
		o.Introspection = g.intr
	}
	sp := r.tr.begin("guided.search", root, i)
	b, err := g.build(r, sp, i, cfg, o)
	if err != nil {
		return fail("build: %v", err)
	}
	c := b.World.Campaign
	f, found := c.RunUntilFinding(gpMaxSearch)
	searchWall := time.Since(t0)
	r.tr.end(sp)
	if !found {
		return fail("guided search found nothing in %v", gpMaxSearch)
	}
	frames := c.FramesSent()

	// Minimize the trigger window in cold worlds.
	var worlds []*fleet.World
	sp = r.tr.begin("guided.Minimizer", root, i)
	m := &guided.Minimizer{
		Factory: func(fleet.TrialSpec) (*fleet.World, error) {
			b, err := g.build(r, sp, i, cfg, target.Options{})
			if err != nil {
				return nil, err
			}
			worlds = append(worlds, b.World)
			return b.World, nil
		},
		Seed:     seed,
		Oracle:   f.Verdict.Oracle,
		Interval: time.Millisecond,
	}
	res, err := m.Minimize(f.Recent)
	minWall := r.tr.end(sp)
	if err != nil {
		return fail("minimize: %v", err)
	}
	for _, w := range worlds {
		frames += w.Campaign.FramesSent()
	}
	trig := res.Trigger()

	// Record the finding and replay it as a regression check.
	rec := findings.FromMinimized(trig, gpContext, seed, res.Interval, res.Settle,
		findings.Provenance{Source: "canbench", Mode: "guided"})
	sp = r.tr.begin("findings.DB.Merge", root, i)
	_, err = g.db.Merge(rec)
	mergeWall := r.tr.end(sp)
	if err != nil {
		return fail("merge: %v", err)
	}
	sp = r.tr.begin("findings.RunSuite", root, i)
	suite := findings.RunSuite([]findings.Record{rec}, findings.SuiteConfig{Workers: 1, Attempts: gpReplayAttempt})
	replayWall := r.tr.end(sp)
	st.wall = time.Since(t0)
	r.tr.end(root)

	if err := checkPipeline(trig.Frames, suite, gpTrigger); err != nil {
		return fail("%v", err)
	}
	var js bytes.Buffer
	if err := suite.WriteJSON(&js); err != nil {
		return fail("suite report: %v", err)
	}
	st.trials = 1
	st.frames = frames
	st.trialWalls = []time.Duration{st.wall}
	st.findWalls = []time.Duration{searchWall}
	st.digest = fmt.Sprintf("%d %d %v %d %x", f.Elapsed, frames, trig.Frames, res.Executions,
		sha256.Sum256(js.Bytes()))
	if r.tr != nil {
		g.instances++
		g.execs += res.Executions
		g.minimize.add(minWall)
		g.merge.add(mergeWall)
		g.replay.add(replayWall)
		g.sendErrors += c.SendErrors()
		g.ttf = append(g.ttf, f.Elapsed)
	}
	return st
}

// checkPipeline is the instance's output check: the trigger minimizes to
// the single unlock frame and the replay verdict is pass.
func checkPipeline(trigger []string, suite *findings.SuiteReport, want string) error {
	if got := strings.Join(trigger, " "); got != want {
		return fmt.Errorf("minimized trigger %q, want %q", got, want)
	}
	if suite.Records != 1 || suite.Pass != 1 {
		return fmt.Errorf("replay: %d records, %d pass, %d fail, %d flaky, %d errors",
			suite.Records, suite.Pass, suite.Fail, suite.Flaky, suite.Errors)
	}
	return nil
}

func (g *guidedPipeline) layers(r *runner, traced []opStats) ([]micro, time.Duration, error) {
	sum := sumOps(traced)
	r.set("target.builds", float64(g.builds.calls))
	r.set("target.build_us", g.builds.meanUs())
	r.setFrames(sum.frames, g.sendErrors)
	r.set("oracle.findings", float64(g.instances))
	r.set("oracle.virtual_ttf_s", median(g.ttf).Seconds())
	snap := g.intr.Snapshot()
	n := float64(g.instances)
	r.set("guided.novelty_hits", float64(snap.NoveltyHits)/n)
	r.set("guided.corpus_size", float64(snap.CorpusSize)/n)
	r.set("guided.mutations", float64(snap.Mutations)/n)
	r.set("guided.explorations", float64(snap.Explorations)/n)
	if snap.Execs > 0 {
		r.set("guided.novelty_yield", float64(snap.NoveltyHits)/float64(snap.Execs))
	}
	r.set("minimize.executions", float64(g.execs)/n)
	if g.execs > 0 {
		r.set("minimize.exec_us", us(g.minimize.busy)/float64(g.execs))
	}
	r.set("findings.merge_us", g.merge.meanUs())
	r.set("findings.replay_ms", g.replay.meanUs()/1000)

	var ps []probe
	for k := 0; k < gpProbes; k++ {
		p, err := runProbe(gpSpec, gpConfig(faults.DeriveSeed(r.seed, k)), gpMaxSearch)
		if err != nil {
			return nil, 0, err
		}
		ps = append(ps, p)
	}
	epf, dpf := r.probeLayers(ps)
	// The guided engine, not core.Generator, makes this workload's frames;
	// the codec and generator timings replay the blind stream on the same
	// seed as the nearest public stand-in.
	blind := gpConfig(r.seed)
	blind.Mode = core.ModeRandom
	ms, err := r.simMicros(blind, sum.frames, epf, dpf, ps[0].events, 0)
	return ms, sum.wall, err
}
