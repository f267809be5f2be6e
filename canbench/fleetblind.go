package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/bcm"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/target"
)

// fleet-blind: the Table V bench unlock (byte-only BCM check, 1 ms pacing,
// blind random generator) as fleet.Run batches of trials to first finding,
// recycling worlds at two workers. The identifier range is narrowed to the
// 64 identifiers around the BCM's so a trial takes ~16 s virtual instead
// of ~590 s, and a run holds thousands of exponential-length trials.
const (
	fbWorkers     = 2
	fbBatch       = 64
	fbMaxPerTrial = 24 * time.Hour
	fbProbes      = 8
)

var fbSpec = target.Spec{Target: "bench", Check: bcm.CheckByteOnly, Stop: true}

func fbConfig(seed int64) core.Config {
	return core.Config{Seed: seed, IDMin: 0x200, IDMax: 0x23F, Interval: time.Millisecond}
}

type fleetBlind struct {
	pool          *fleet.WorldPool
	tr            *tracer     // the op's tracer; nil outside the traced pass
	obs           *trialClock // the running batch's observer
	builds, reset timed
	sendErrors    uint64
	findings      int
	ttf           []time.Duration
	idle          time.Duration
}

func (f *fleetBlind) close() {}

// factory builds bench worlds through target.Build. While f.tr is set it
// times every build and every World.Reset; the reset wrapper is installed
// on every world, and reads f.tr and f.obs when it runs, so pooled worlds
// built before tracing are counted against the batch that reuses them.
func (f *fleetBlind) factory(ts fleet.TrialSpec) (*fleet.World, error) {
	sp := f.tr.begin("target.Build", f.obs.span(ts.Index), f.obs.trial(ts.Index))
	b, err := target.Build(fbSpec, fbConfig(ts.Seed), target.Options{})
	if d := f.tr.end(sp); f.tr != nil {
		f.builds.add(d)
	}
	if err != nil {
		return nil, err
	}
	w := b.World
	reset := w.Reset
	w.Reset = func(ts fleet.TrialSpec) error {
		if f.tr == nil {
			return reset(ts)
		}
		sp := f.tr.begin("fleet.World.Reset", f.obs.span(ts.Index), f.obs.trial(ts.Index))
		err := reset(ts)
		f.reset.add(f.tr.end(sp))
		return err
	}
	return w, nil
}

// setUp is one cold start of the fleet: an empty world pool and a world
// built for every worker. fleet.Run offers no way to seed a pool, so the
// first batch builds its two worlds again; that is two builds in a run.
func (f *fleetBlind) setUp(r *runner) error {
	f.pool = &fleet.WorldPool{}
	for k := 0; k < fbWorkers; k++ {
		if _, err := target.Build(fbSpec, fbConfig(faults.DeriveSeed(r.seed, k)), target.Options{}); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleetBlind) run(cfg fleet.Config) (*fleet.Report, []byte, error) {
	rep, err := fleet.Run(cfg, f.factory)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, nil, err
	}
	return rep, buf.Bytes(), nil
}

func (f *fleetBlind) op(r *runner, i int) opStats {
	cfg := fleet.Config{Trials: fbBatch, Workers: fbWorkers, BaseSeed: faults.DeriveSeed(r.seed, i),
		MaxPerTrial: fbMaxPerTrial, Pool: f.pool}
	batch := r.tr.begin("fleet.Run", -1, -1)
	obs := newTrialClock(r.tr, fbBatch, batch, i*fbBatch)
	f.tr, f.obs, cfg.Observer = r.tr, obs, obs
	t0 := time.Now()
	rep, js, err := f.run(cfg)
	st := opStats{wall: time.Since(t0), attempted: fbBatch}
	r.tr.end(batch)
	if err != nil {
		r.failf("batch %d: %v", i, err)
		st.failed = fbBatch
		return st
	}
	st.trials = fbBatch
	st.trialWalls = obs.walls()
	st.digest = fmt.Sprintf("%x", sha256.Sum256(js))
	var busy time.Duration
	for k, res := range rep.Results {
		st.frames += res.FramesSent
		busy += st.trialWalls[k]
		if err := checkUnlockTrial(res); err != nil {
			st.failed++
			r.failf("batch %d: %v", i, err)
			continue
		}
		st.findWalls = append(st.findWalls, st.trialWalls[k])
		if r.tr != nil {
			f.sendErrors += res.SendErrors
			f.findings += res.Findings
			f.ttf = append(f.ttf, res.TimeToFinding)
		}
	}
	if r.tr != nil {
		f.idle += time.Duration(fbWorkers)*st.wall - busy
	}
	if i == 0 {
		// The recycled two-worker report must equal the cold one-worker one.
		cold := cfg
		cold.Workers, cold.Pool, cold.DisableReuse, cold.Observer = 1, nil, true, nil
		f.tr = nil
		_, want, err := f.run(cold)
		if err == nil {
			err = checkSameReport(js, want)
		}
		if err != nil {
			st.failed++
			r.failf("batch 0 report: %v", err)
		}
	}
	return st
}

// checkUnlockTrial is the per-trial output check: a blind bench trial to
// first finding must end in the BCM unlock on identifier 0x215.
func checkUnlockTrial(res fleet.TrialResult) error {
	if res.Status != fleet.StatusFinding || res.TriggerID != "215" {
		return fmt.Errorf("trial %d: status %s trigger %q, want finding on 215 (%s%s)",
			res.Trial, res.Status, res.TriggerID, res.Err, res.PanicValue)
	}
	return nil
}

// checkSameReport is the byte-identity check between two serialised
// reports.
func checkSameReport(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("report differs from the cold workers=1 report (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

func (f *fleetBlind) layers(r *runner, traced []opStats) ([]micro, time.Duration, error) {
	sum := sumOps(traced)
	// Recycled worlds mean the traced pass builds almost nothing; cost a
	// build on fresh ones so set-up work still has a layer number.
	r.set("target.builds", float64(f.builds.calls))
	build := &timed{calls: f.builds.calls, busy: f.builds.busy}
	for k := 0; build.calls < 32; k++ {
		t0 := time.Now()
		if _, err := target.Build(fbSpec, fbConfig(faults.DeriveSeed(r.seed, k)), target.Options{}); err != nil {
			return nil, 0, err
		}
		build.add(time.Since(t0))
	}
	r.set("target.build_us", build.meanUs())
	r.set("fleet.resets", float64(f.reset.calls))
	r.set("fleet.reset_us", f.reset.meanUs())
	if n := f.builds.calls + f.reset.calls; n > 0 {
		r.set("fleet.reuse_ratio", float64(f.reset.calls)/float64(n))
	}
	r.set("fleet.worker_idle_s", f.idle.Seconds())
	r.setFrames(sum.frames, f.sendErrors)
	r.set("oracle.findings", float64(f.findings))
	r.set("oracle.virtual_ttf_s", median(f.ttf).Seconds())

	var ps []probe
	for k := 0; k < fbProbes; k++ {
		p, err := runProbe(fbSpec, fbConfig(faults.DeriveSeed(faults.DeriveSeed(r.seed, 0), k)), fbMaxPerTrial)
		if err != nil {
			return nil, 0, err
		}
		ps = append(ps, p)
	}
	epf, dpf := r.probeLayers(ps)
	ms, err := r.simMicros(fbConfig(r.seed), sum.frames, epf, dpf, ps[0].events, 0)
	var busy time.Duration
	for _, w := range sum.trialWalls {
		busy += w
	}
	return ms, busy, err
}

// setFrames sets the core layer's send counters.
func (r *runner) setFrames(frames, sendErrors uint64) {
	r.set("core.frames_sent", float64(frames))
	r.set("core.send_errors", float64(sendErrors))
	if frames+sendErrors > 0 {
		r.set("core.sent_ratio", float64(frames)/float64(frames+sendErrors))
	}
}

// trialClock is a fleet.Observer that times every trial from
// TrialStarted to TrialFinished and, when tracing, opens a span per
// trial. Each trial's slots are written only by the worker running it.
type trialClock struct {
	tr     *tracer
	parent int
	first  int // global number of the batch's trial 0
	starts []time.Time
	ends   []time.Time
	spans  []int
}

func newTrialClock(tr *tracer, trials, parent, first int) *trialClock {
	return &trialClock{tr: tr, parent: parent, first: first,
		starts: make([]time.Time, trials), ends: make([]time.Time, trials), spans: make([]int, trials)}
}

func (c *trialClock) span(i int) int  { return c.spans[i] }
func (c *trialClock) trial(i int) int { return c.first + i }

func (c *trialClock) CampaignStarted(fleet.Config, int) {}
func (c *trialClock) CampaignDone(*fleet.Report)        {}

func (c *trialClock) TrialStarted(ts fleet.TrialSpec) {
	c.spans[ts.Index] = c.tr.begin("fleet.trial", c.parent, c.trial(ts.Index))
	c.starts[ts.Index] = time.Now()
}

func (c *trialClock) TrialFinished(res fleet.TrialResult) {
	c.ends[res.Trial] = time.Now()
	c.tr.end(c.spans[res.Trial])
}

func (c *trialClock) walls() []time.Duration {
	out := make([]time.Duration, len(c.starts))
	for i := range out {
		out[i] = c.ends[i].Sub(c.starts[i])
	}
	return out
}
