package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/campaignd"
	"repro/internal/campsrv"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/target"
)

// service-inproc: one campaignd.Worker in a closed loop against
// campsrv.Server.Handler. The worker's HTTP client uses an in-memory
// RoundTripper that calls the handler directly, so no sockets are
// involved. One op is one round: a fresh daemon, two campaigns at
// priority 2:1 with a fixed number of short bench trials each, run to
// completion, and both reports checked against the cold in-process run.
const (
	// svTrials is fixed because AcquireLease scans the trial slice, so the
	// cost per trial grows with campaign size. It is large so that the two
	// campaign-finishing submissions per round, which sync the journal,
	// stay fewer than the ten samples beyond the tail percentile.
	svTrials      = 2000
	svMaxPerTrial = 250 * time.Millisecond
	svProbes      = 8
	svBase        = "http://canbench.inproc"
)

// svSpec is a campaign of short bench trials: 250 ms virtual, ~250 frames,
// aimed at the 16 identifiers 0x210-0x21F so about one trial in twenty
// reaches the BCM unlock and stops there. Trials this short leave the
// lease, JSON and journal work a large share of each one, and put ~50k
// trials in a run, so the tail is p99.9 with ~50 samples beyond it.
func svSpec(base int64) campaignd.CampaignSpec {
	cfg := core.Config{IDMin: 0x210, IDMax: 0x21F, Interval: time.Millisecond}
	return campaignd.CampaignSpec{Target: "bench", BCMCheck: "byte", StopOnFinding: true,
		Trials: svTrials, BaseSeed: base, MaxPerTrialNanos: int64(svMaxPerTrial), Config: cfg.ToJSON()}
}

// routes are the worker-protocol routes whose timings are reported.
var routes = []string{"/campaignd/lease", "/campaignd/result", "/campaignd/spec"}

// inproc is an http.RoundTripper that serves each request by calling the
// handler in the caller's goroutine. It times every route and, because
// the one worker alternates lease and result, the wall of every trial
// from its lease being granted to its result being acknowledged.
type inproc struct {
	h http.Handler
	// afterResult runs after every result submission is answered.
	afterResult func()

	routeWalls map[string][]time.Duration
	leaseEnd   time.Time // when the last granted lease was answered
	exec       time.Duration
	bytes      int64
	leaseWaits int
	non2xx     int
	redispatch int
	trials     map[string]time.Duration // "campaign/trial" -> wall
}

func newInproc(h http.Handler) *inproc {
	return &inproc{h: h, routeWalls: map[string][]time.Duration{}, trials: map[string]time.Duration{}}
}

func (t *inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	path := req.URL.Path
	isResult := path == "/campaignd/result"
	if isResult {
		t.exec += start.Sub(t.leaseEnd)
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if req.Body != nil {
		req.Body.Close()
	}
	end := time.Now()
	resp := rec.Result()
	resp.Request = req
	t.routeWalls[path] = append(t.routeWalls[path], end.Sub(start))
	t.bytes += max(req.ContentLength, 0) + int64(rec.Body.Len())
	if resp.StatusCode/100 != 2 {
		t.non2xx++
	}
	switch {
	case path == "/campaignd/lease":
		body := rec.Body.Bytes()
		if bytes.Contains(body, []byte(`"status":"lease"`)) {
			t.leaseEnd = end
		} else if bytes.Contains(body, []byte(`"status":"wait"`)) {
			t.leaseWaits++
		}
	case isResult:
		q := req.URL.Query()
		key := q.Get("campaign") + "/" + q.Get("trial")
		if _, dup := t.trials[key]; dup {
			t.redispatch++
		}
		t.trials[key] = end.Sub(t.leaseEnd)
		if t.afterResult != nil {
			t.afterResult()
		}
	}
	return resp, nil
}

// svRound is one daemon with its two submitted campaigns and a worker.
type svRound struct {
	dir    string
	srv    *campsrv.Server
	tp     *inproc
	client *http.Client
	ids    []string
	specs  []campaignd.CampaignSpec
	worker *campaignd.Worker
}

type serviceInproc struct {
	round  *svRound
	builds timed
	tr     *tracer
	parent int

	routes                                 map[string][]time.Duration
	ttf                                    []time.Duration
	exec, wall                             time.Duration
	bytes, journalBytes, journalLines      int64
	leaseWaits, trials, sendErrs, findings int
}

func (s *serviceInproc) close() {
	if s.round != nil {
		s.round.close()
	}
}

// runtime is the worker's RuntimeBuilder: the campaign spec mapped onto
// target.Build worlds, timed while tracing.
func (s *serviceInproc) runtime(spec campaignd.CampaignSpec) (campaignd.Runtime, error) {
	ts, cfg, err := target.FromCampaignSpec(spec)
	if err != nil {
		return campaignd.Runtime{}, err
	}
	return campaignd.Runtime{
		Factory: func(tsp fleet.TrialSpec) (*fleet.World, error) {
			c := cfg
			c.Seed = tsp.Seed
			sp := s.tr.begin("target.Build", s.parent, tsp.Index)
			b, err := target.Build(ts, c, target.Options{})
			if d := s.tr.end(sp); s.tr != nil {
				s.builds.add(d)
			}
			if err != nil {
				return nil, err
			}
			return b.World, nil
		},
		FleetCfg: spec.FleetConfig(),
	}, nil
}

// newRound is one cold set-up: a data directory, campsrv.New, two
// submissions through the HTTP API and the worker.
func (s *serviceInproc) newRound(r *runner, base int64) (*svRound, error) {
	dir, err := os.MkdirTemp(r.dir, "daemon-")
	if err != nil {
		return nil, err
	}
	srv, err := campsrv.New(campsrv.Config{DataDir: dir})
	if err != nil {
		return nil, err
	}
	rd := &svRound{dir: dir, srv: srv, tp: newInproc(srv.Handler(campsrv.HandlerConfig{}))}
	rd.client = &http.Client{Transport: rd.tp}
	for k, prio := range []int{2, 1} {
		spec := svSpec(faults.DeriveSeed(base, k))
		body, err := json.Marshal(campsrv.Submission{Spec: spec, Priority: prio})
		if err != nil {
			return nil, err
		}
		resp, err := rd.client.Post(svBase+"/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		var v campsrv.CampaignView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			return nil, fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
		}
		rd.ids = append(rd.ids, v.ID)
		rd.specs = append(rd.specs, spec)
	}
	rd.worker = &campaignd.Worker{Client: &campaignd.Client{Base: svBase, HTTP: rd.client},
		Name: "w1", Build: s.runtime}
	// Every trial answered: tell the worker there is no work left.
	total := len(rd.ids) * svTrials
	rd.tp.afterResult = func() {
		if len(rd.tp.trials) == total {
			srv.BeginShutdown()
		}
	}
	return rd, nil
}

func (rd *svRound) close() {
	_ = rd.srv.Close() // the round is discarded; its journals are not read again
	os.RemoveAll(rd.dir)
}

func (s *serviceInproc) setUp(r *runner) error {
	if s.round != nil {
		s.round.close()
	}
	var err error
	s.round, err = s.newRound(r, r.seed)
	return err
}

func (s *serviceInproc) op(r *runner, i int) opStats {
	st := opStats{attempted: 2 * svTrials}
	if s.round != nil {
		s.round.close()
		s.round = nil
	}
	rd, err := s.newRound(r, faults.DeriveSeed(r.seed, i))
	if err != nil {
		st.failed = st.attempted
		r.failf("round %d set-up: %v", i, err)
		return st
	}
	s.round = rd
	s.tr = r.tr
	s.parent = r.tr.begin("service.round", -1, i)
	t0 := time.Now()
	err = rd.worker.Run(context.Background())
	st.wall = time.Since(t0)
	r.tr.end(s.parent)
	if err != nil {
		st.failed = st.attempted
		r.failf("round %d worker: %v", i, err)
		return st
	}
	// Failures the transport saw: a non-2xx answer or a re-dispatched lease.
	st.failed += rd.tp.non2xx + rd.tp.redispatch

	var digest bytes.Buffer
	for k, id := range rd.ids {
		got, err := rd.get("/campaigns/" + id + "/report.json")
		var rep *fleet.Report
		if err == nil {
			rep, err = fleet.ReadReport(bytes.NewReader(got))
		}
		if err == nil {
			err = s.checkReport(rd.specs[k], got)
		}
		if err != nil {
			st.failed += svTrials
			r.failf("round %d campaign %s: %v", i, id, err)
			continue
		}
		digest.Write(got)
		for _, res := range rep.Results {
			wall := rd.tp.trials[id+"/"+strconv.Itoa(res.Trial)]
			st.trials++
			st.frames += res.FramesSent
			st.trialWalls = append(st.trialWalls, wall)
			switch res.Status {
			case fleet.StatusFinding:
				st.findWalls = append(st.findWalls, wall)
			case fleet.StatusTimeout:
			default:
				st.failed++
			}
			if r.tr != nil {
				s.sendErrs += int(res.SendErrors)
				s.findings += res.Findings
				if res.Status == fleet.StatusFinding {
					s.ttf = append(s.ttf, res.TimeToFinding)
				}
			}
		}
		if r.tr != nil {
			if err := s.journal(rd, id); err != nil {
				st.failed++
				r.failf("round %d journal: %v", i, err)
			}
		}
	}
	st.digest = fmt.Sprintf("%x", digest.Bytes())
	if r.tr != nil {
		if s.routes == nil {
			s.routes = map[string][]time.Duration{}
		}
		for k, v := range rd.tp.routeWalls {
			s.routes[k] = append(s.routes[k], v...)
		}
		s.exec += rd.tp.exec
		s.wall += st.wall
		s.bytes += rd.tp.bytes
		s.leaseWaits += rd.tp.leaseWaits
		s.trials += st.trials
	}
	return st
}

// get fetches a daemon document through the in-memory transport.
func (rd *svRound) get(path string) ([]byte, error) {
	resp, err := rd.client.Get(svBase + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// checkReport compares a served report with the cold workers=1 in-process
// fleet.Run of the same spec.
func (s *serviceInproc) checkReport(spec campaignd.CampaignSpec, got []byte) error {
	want, err := coldReport(spec)
	if err != nil {
		return err
	}
	return checkSameReport(got, want)
}

// coldReport is the reference: the spec run in-process at one worker on
// the cold path.
func coldReport(spec campaignd.CampaignSpec) ([]byte, error) {
	ts, cfg, err := target.FromCampaignSpec(spec)
	if err != nil {
		return nil, err
	}
	fc := spec.FleetConfig()
	fc.Workers, fc.DisableReuse = 1, true
	rep, err := fleet.Run(fc, func(tsp fleet.TrialSpec) (*fleet.World, error) {
		c := cfg
		c.Seed = tsp.Seed
		b, err := target.Build(ts, c, target.Options{})
		if err != nil {
			return nil, err
		}
		return b.World, nil
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = rep.WriteJSON(&buf)
	return buf.Bytes(), err
}

// journal adds the campaign journal's size and line count.
func (s *serviceInproc) journal(rd *svRound, id string) error {
	data, err := os.ReadFile(filepath.Join(rd.dir, id, "events.jsonl"))
	if err != nil {
		return err
	}
	s.journalBytes += int64(len(data))
	s.journalLines += int64(bytes.Count(data, []byte("\n")))
	return nil
}

func (s *serviceInproc) layers(r *runner, traced []opStats) ([]micro, time.Duration, error) {
	sum := sumOps(traced)
	n := float64(s.trials)
	r.set("target.builds", float64(s.builds.calls))
	r.set("target.build_us", s.builds.meanUs())
	r.setFrames(sum.frames, uint64(s.sendErrs))
	r.set("oracle.findings", float64(s.findings))
	r.set("oracle.virtual_ttf_s", median(s.ttf).Seconds())
	for _, rt := range routes {
		name := "service." + filepath.Base(rt) + "_us"
		tail, _ := tailPercentile(s.routes[rt])
		r.set(name+"_p50", us(median(s.routes[rt])))
		r.set(name+"_tail", us(tail))
	}
	r.set("service.lease_waits", float64(s.leaseWaits))
	r.set("service.bytes_per_trial", float64(s.bytes)/n)
	r.set("service.exec_share", s.exec.Seconds()/s.wall.Seconds())
	r.set("journal.bytes_per_trial", float64(s.journalBytes)/n)
	r.set("journal.lines_per_trial", float64(s.journalLines)/n)

	ts, cfg, err := target.FromCampaignSpec(svSpec(r.seed))
	if err != nil {
		return nil, 0, err
	}
	var ps []probe
	for k := 0; k < svProbes; k++ {
		c := cfg
		c.Seed = faults.DeriveSeed(r.seed, k)
		p, err := runProbe(ts, c, svMaxPerTrial)
		if err != nil {
			return nil, 0, err
		}
		ps = append(ps, p)
	}
	epf, dpf := r.probeLayers(ps)
	cfg.Seed = r.seed
	ms, err := r.simMicros(cfg, sum.frames, epf, dpf, ps[0].events, 0)
	return ms, sum.wall, err
}
