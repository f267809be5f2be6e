package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// micro is one reconciled micro timing: a public function replayed over
// the workload's own inputs, costed at nsPerCall, called calls times in
// the traced pass.
type micro struct {
	share     string
	nsPerCall float64
	calls     float64
}

// reconcile turns the micro timings into shares of the traced pass's wall
// time, plus the sim.other_share remainder (ECU dispatch, oracles, the
// harness and everything not replayed).
func (r *runner) reconcile(wall time.Duration, ms []micro) {
	other := 1.0
	for _, m := range ms {
		share := m.nsPerCall * m.calls / float64(wall)
		r.set(m.share, share)
		other -= share
	}
	r.set("sim.other_share", other)
}

// probe is one trial re-run outside the timed passes, once with the
// telemetry plane off and once with it on, stepping the scheduler by hand
// so scheduler events can be counted.
type probe struct {
	wallOff, wallOn time.Duration
	steps           uint64
	frames          uint64
	findings        int
	virtual         time.Duration
	metrics         map[string]float64 // registry series summed over labels
	events          []telemetry.Event
	eventsTotal     uint64
	features        map[string]uint64 // the target's guided probes
}

// runProbe builds the trial's world with and without telemetry and drives
// both to the deadline (or to the campaign stopping itself at a finding
// when spec.Stop is set). The two runs must agree on every virtual
// statistic; telemetry observes the world, it must not change it.
func runProbe(spec target.Spec, cfg core.Config, deadline time.Duration) (probe, error) {
	var p probe
	offB, err := target.Build(spec, cfg, target.Options{})
	if err != nil {
		return p, err
	}
	t0 := time.Now()
	offSteps := drive(offB.World, deadline)
	p.wallOff = time.Since(t0)

	tel := telemetry.New(0)
	onB, err := target.Build(spec, cfg, target.Options{Telemetry: tel})
	if err != nil {
		return p, err
	}
	t0 = time.Now()
	p.steps = drive(onB.World, deadline)
	p.wallOn = time.Since(t0)

	off, on := offB.World, onB.World
	p.frames = on.Campaign.FramesSent()
	p.findings = len(on.Campaign.Findings())
	p.virtual = on.Sched.Now()
	if off.Campaign.FramesSent() != p.frames || len(off.Campaign.Findings()) != p.findings ||
		off.Sched.Now() != p.virtual || offSteps != p.steps {
		return p, fmt.Errorf("telemetry changed the simulation: frames %d/%d findings %d/%d",
			off.Campaign.FramesSent(), p.frames, len(off.Campaign.Findings()), p.findings)
	}
	p.metrics, err = registryTotals(tel)
	if err != nil {
		return p, err
	}
	p.events = tel.Tracer.Events()
	p.eventsTotal = tel.Tracer.Total()
	p.features = map[string]uint64{}
	for _, pr := range onB.Probes {
		p.features[pr.Name] = pr.Fn()
	}
	return p, nil
}

// drive starts the campaign and steps the scheduler until the deadline or
// until the campaign stops itself, returning the number of events run.
func drive(w *fleet.World, deadline time.Duration) uint64 {
	c := w.Campaign
	c.Start()
	var steps uint64
	for c.Running() && w.Sched.Now() < deadline && w.Sched.Step() {
		steps++
	}
	c.Stop()
	return steps
}

// registryTotals reads the registry's JSON snapshot and sums every series
// by metric name (histograms contribute name_sum and name_count).
func registryTotals(tel *telemetry.Telemetry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := tel.Registry.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		Metrics []struct {
			Name  string          `json:"name"`
			Value json.RawMessage `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range doc.Metrics {
		var v float64
		if json.Unmarshal(m.Value, &v) == nil {
			out[m.Name] += v
			continue
		}
		var h struct {
			Count float64 `json:"count"`
			Sum   float64 `json:"sum"`
		}
		if err := json.Unmarshal(m.Value, &h); err != nil {
			return nil, fmt.Errorf("metric %s: %w", m.Name, err)
		}
		out[m.Name+"_sum"] += h.Sum
		out[m.Name+"_count"] += h.Count
	}
	return out, nil
}

// probeLayers sets the layer metrics probe trials measure: bus, BCM,
// telemetry and scheduler activity, as per-trial means over the probes.
// It returns the scheduler events and delivered bus frames per fuzz frame,
// which extrapolate micro-timing call counts to the traced pass.
func (r *runner) probeLayers(ps []probe) (eventsPerFrame, deliveredPerFrame float64) {
	var frames, steps, delivered, bits, wire, virtual, arb, events, cmd, near float64
	var off, on time.Duration
	for _, p := range ps {
		frames += float64(p.frames)
		steps += float64(p.steps)
		delivered += p.metrics["can_frames_delivered_total"]
		bits += p.metrics["can_bits_transmitted_total"]
		wire += p.metrics["can_tx_wire_seconds_sum"]
		virtual += p.virtual.Seconds()
		arb += p.metrics["can_port_arb_losses_total"]
		events += float64(p.eventsTotal)
		cmd += float64(p.features["bcm_cmd_frames"])
		near += float64(p.features["bcm_near_misses"])
		off += p.wallOff
		on += p.wallOn
	}
	n := float64(len(ps))
	r.set("bus.frames_delivered", delivered/n)
	if delivered > 0 {
		r.set("bus.bits_per_frame", bits/delivered)
	}
	if virtual > 0 {
		r.set("bus.busy_share", wire/virtual)
	}
	r.set("bus.arb_losses", arb/n)
	r.set("bcm.command_frames", cmd/n)
	r.set("bcm.near_misses", near/n)
	r.set("telemetry.events_total", events/n)
	if on > 0 {
		r.set("telemetry.on_off_ratio", float64(off)/float64(on))
	}
	r.set("clock.events_per_frame", steps/frames)
	return steps / frames, delivered / frames
}

// microBudget is roughly how long each micro timing replays its inputs.
const microBudget = 50 * time.Millisecond

// repeatNs calls fn(i) over i = 0..n-1, looping until microBudget is
// spent, and returns the mean ns per call.
func repeatNs(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < microBudget {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	return float64(time.Since(t0)) / float64(calls)
}

var sinkInt int

// captureFrames regenerates the first n frames the blind generator sends
// for cfg: the workload's own inputs for the codec and generator timings.
func captureFrames(cfg core.Config, n int) ([]can.Frame, error) {
	g, err := core.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]can.Frame, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out, nil
}

// wireBitsNs is can.WireBits' cost over the captured frames.
func wireBitsNs(frames []can.Frame) float64 {
	return repeatNs(len(frames), func(i int) { sinkInt += can.WireBits(frames[i]) })
}

// generatorNs is Generator.Next's cost on the workload's config and seed.
func generatorNs(cfg core.Config) (float64, error) {
	g, err := core.NewGenerator(cfg)
	if err != nil {
		return 0, err
	}
	return repeatNs(4096, func(int) { sinkInt += int(g.Next().Len) }), nil
}

// clockNs is one AfterEvent+Step cycle on a fresh scheduler.
func clockNs() float64 {
	s := clock.New()
	fn := func() {}
	return repeatNs(4096, func(int) {
		s.AfterEvent(time.Microsecond, fn)
		s.Step()
	})
}

// emitNs replays a run's own trace events through a fresh tracer.
func emitNs(events []telemetry.Event) float64 {
	t := telemetry.NewTracer(0)
	return repeatNs(len(events), func(i int) { t.Emit(events[i]) })
}

// simMicros measures the four simulation-path micro timings and costs
// them against a traced pass that sent frames fuzz frames and emitted
// emitted trace events.
func (r *runner) simMicros(cfg core.Config, frames uint64, eventsPerFrame, deliveredPerFrame float64,
	events []telemetry.Event, emitted float64) ([]micro, error) {
	capture, err := captureFrames(cfg, 8192)
	if err != nil {
		return nil, err
	}
	wb := wireBitsNs(capture)
	gen, err := generatorNs(cfg)
	if err != nil {
		return nil, err
	}
	clk := clockNs()
	emit := emitNs(events)
	r.set("can.wirebits_ns_per_frame", wb)
	r.set("core.gen_ns_per_frame", gen)
	r.set("clock.ns_per_event", clk)
	r.set("telemetry.emit_ns", emit)
	f := float64(frames)
	return []micro{
		{"can.wirebits_share", wb, f * deliveredPerFrame},
		{"core.gen_share", gen, f},
		{"clock.share", clk, f * eventsPerFrame},
		{"telemetry.emit_share", emit, emitted},
	}, nil
}
