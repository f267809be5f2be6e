package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// vehicle-telemetry: blind 1 ms fuzzing of the full vehicle's body bus,
// among every ECU's periodic traffic through the gateway, with the
// telemetry registry and tracer on, for a fixed virtual duration per
// trial. One op is one trial; target.Build settles the car for one virtual
// second before the campaign starts. The generator is aimed at the two
// identifiers 0x214-0x215 so that ~97% of trials reach the BCM unlock
// (mean ~0.6 s virtual) and the wall time to it can be measured; the
// periodic traffic, not the fuzz stream, keeps the scheduler and the bus
// busy.
const (
	// vtTraceEvents is the tracer's ring size. A trial emits ~250k events;
	// the ring keeps the latest 4k, so each trial pays the tracer's
	// per-event cost without allocating a 6 MB default ring.
	vtTraceEvents = 1 << 12
	// vtRun is the virtual fuzzing time per trial. At 15 s a trial takes
	// ~35 ms, so a run holds a few hundred and its tail is p90, clear of
	// the ~1% of trials a collection or a stall slows down.
	vtRun    = 15 * time.Second
	vtChunk  = 10 * time.Millisecond
	vtProbes = 2
)

var vtSpec = target.Spec{Target: "vehicle", Bus: "body"}

func vtConfig(seed int64) core.Config {
	return core.Config{Seed: seed, IDMin: 0x214, IDMax: 0x215, Interval: time.Millisecond}
}

// vehicleCounts are a vehicle trial's virtual statistics: the telemetry
// snapshot counters the check compares and the digest fingerprints.
type vehicleCounts struct {
	Frames       uint64
	Findings     uint64
	FirstFinding time.Duration
	Delivered    uint64
	ArbLosses    uint64
	TraceTotal   uint64
}

// vtCanarySeed is a fixed trial whose counts are pinned below; every run
// replays it once, outside the timed loop, whatever its --seed.
const vtCanarySeed = 1

var vtCanary = vehicleCounts{Frames: 15000, Findings: 1, FirstFinding: 450 * time.Millisecond,
	Delivered: 18968, ArbLosses: 0, TraceTotal: 246639}

type vehicleTelemetry struct {
	builds   timed
	counts   []vehicleCounts
	metrics  map[string]float64
	emitted  uint64
	sendErrs uint64
	events   []telemetry.Event
}

func (v *vehicleTelemetry) close() {}

// setUp is one cold start: a telemetry plane and a settled vehicle world.
func (v *vehicleTelemetry) setUp(r *runner) error {
	_, err := target.Build(vtSpec, vtConfig(r.seed), target.Options{Telemetry: telemetry.New(vtTraceEvents)})
	return err
}

// trial builds and runs one vehicle trial, returning its counts, the wall
// time from its start to its first finding (0 without one) and its
// telemetry plane.
func (v *vehicleTelemetry) trial(r *runner, seed int64, parent, idx int) (vehicleCounts, time.Duration, *telemetry.Telemetry, error) {
	var vc vehicleCounts
	t0 := time.Now()
	tel := telemetry.New(vtTraceEvents)
	sp := r.tr.begin("target.Build", parent, idx)
	b, err := target.Build(vtSpec, vtConfig(seed), target.Options{Telemetry: tel})
	if d := r.tr.end(sp); r.tr != nil {
		v.builds.add(d)
	}
	if err != nil {
		return vc, 0, nil, err
	}
	w := b.World
	found := tel.Registry.Counter("campaign_findings_total", "")
	end := w.Sched.Now() + vtRun
	var firstWall time.Duration
	sp = r.tr.begin("core.Campaign.run", parent, idx)
	w.Campaign.Start()
	for now := w.Sched.Now(); now < end; now = w.Sched.Now() {
		w.Sched.RunUntil(min(now+vtChunk, end))
		if firstWall == 0 && found.Value() > 0 {
			firstWall = time.Since(t0)
		}
	}
	w.Campaign.Stop()
	r.tr.end(sp)
	vc.Frames = w.Campaign.FramesSent()
	vc.Findings = found.Value()
	if fs := w.Campaign.Findings(); len(fs) > 0 {
		vc.FirstFinding = fs[0].Elapsed
	}
	vc.Delivered = tel.Registry.Counter("can_frames_delivered_total", "", telemetry.Label{Key: "bus", Value: "body"}).Value()
	vc.ArbLosses = tel.Registry.Counter("can_port_arb_losses_total", "",
		telemetry.Label{Key: "bus", Value: "body"}, telemetry.Label{Key: "port", Value: "fuzzer"}).Value()
	vc.TraceTotal = tel.Tracer.Total()
	if sent := tel.Registry.Counter("campaign_frames_sent_total", "").Value(); sent != vc.Frames {
		return vc, 0, nil, fmt.Errorf("campaign_frames_sent_total %d != FramesSent %d", sent, vc.Frames)
	}
	if r.tr != nil {
		v.sendErrs += w.Campaign.SendErrors()
	}
	return vc, firstWall, tel, nil
}

func (v *vehicleTelemetry) op(r *runner, i int) opStats {
	st := opStats{attempted: 1}
	seed := faults.DeriveSeed(r.seed, i)
	root := r.tr.begin("vehicle.trial", -1, i)
	t0 := time.Now()
	vc, firstWall, tel, err := v.trial(r, seed, root, i)
	st.wall = time.Since(t0)
	r.tr.end(root)
	if err != nil {
		st.failed = 1
		r.failf("trial %d (seed %d): %v", i, seed, err)
		return st
	}
	st.trials = 1
	st.frames = vc.Frames
	st.trialWalls = []time.Duration{st.wall}
	if firstWall > 0 {
		st.findWalls = []time.Duration{firstWall}
	}
	st.digest = fmt.Sprintf("%+v", vc)
	if i == 0 {
		canary, _, _, err := v.trial(&runner{}, vtCanarySeed, -1, -1)
		if err == nil {
			err = checkVehicleCounts(canary, vtCanary)
		}
		if err != nil {
			st.failed++
			r.failf("canary trial (seed %d): %v", vtCanarySeed, err)
		}
	}
	if r.tr != nil {
		v.counts = append(v.counts, vc)
		v.emitted += vc.TraceTotal
		tot, err := registryTotals(tel)
		if err != nil {
			st.failed++
			r.failf("trial %d registry: %v", i, err)
			return st
		}
		if v.metrics == nil {
			v.metrics = map[string]float64{}
			v.events = tel.Tracer.Events()
		}
		for k, x := range tot {
			v.metrics[k] += x
		}
	}
	return st
}

// checkVehicleCounts compares a trial's counts with pinned ones.
func checkVehicleCounts(got, want vehicleCounts) error {
	if got != want {
		return fmt.Errorf("counts %+v, want %+v", got, want)
	}
	return nil
}

func (v *vehicleTelemetry) layers(r *runner, traced []opStats) ([]micro, time.Duration, error) {
	sum := sumOps(traced)
	n := float64(len(v.counts))
	r.set("target.builds", float64(v.builds.calls))
	r.set("target.build_us", v.builds.meanUs())
	r.setFrames(sum.frames, v.sendErrs)
	var findings float64
	var ttf []time.Duration
	for _, c := range v.counts {
		findings += float64(c.Findings)
		if c.Findings > 0 {
			ttf = append(ttf, c.FirstFinding)
		}
	}
	r.set("oracle.findings", findings)
	r.set("oracle.virtual_ttf_s", median(ttf).Seconds())

	var ps []probe
	for k := 0; k < vtProbes; k++ {
		p, err := runProbe(vtSpec, vtConfig(faults.DeriveSeed(r.seed, k)), time.Second+vtRun)
		if err != nil {
			return nil, 0, err
		}
		ps = append(ps, p)
	}
	epf, _ := r.probeLayers(ps)
	// Every traced trial ran with telemetry on, so its own registry gives
	// the bus and telemetry layers; the probes add the on/off ratio and
	// the scheduler event count.
	m := v.metrics
	r.set("bus.frames_delivered", m["can_frames_delivered_total"]/n)
	r.set("bus.bits_per_frame", m["can_bits_transmitted_total"]/m["can_frames_delivered_total"])
	r.set("bus.busy_share", m["can_tx_wire_seconds_sum"]/(n*(time.Second+vtRun).Seconds()))
	r.set("bus.arb_losses", m["can_port_arb_losses_total"]/n)
	r.set("telemetry.events_total", float64(v.emitted)/n)
	dpf := m["can_frames_delivered_total"] / float64(sum.frames)
	ms, err := r.simMicros(vtConfig(r.seed), sum.frames, epf, dpf, v.events, float64(v.emitted))
	return ms, sum.wall, err
}
