// Command canbench is the repository benchmark. It runs one named workload
// against the public APIs of the production path (target.Build worlds,
// fleet.Run trials, the guided engine and minimizer, the findings
// database, and the campsrv daemon driven by a campaignd.Worker), checks
// every output, and prints the result as one JSON object on the last line
// of standard output.
//
// Usage (from the repository root):
//
//	bash canbench/run.sh --workload fleet-blind --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 the workload runs once untraced and once more, over the
// same inputs, with spans recorded around every call into a module, and
// the metrics are the per-layer metrics of BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many cold set-ups every run times; setup_s is their
// median.
const setupReps = 51

// maxProcs pins the Go scheduler to the two cores the workloads are
// sized for, whatever the machine has.
const maxProcs = 2

// workload is one benchmark workload. setUp performs one cold set-up (the
// state of the last call is what op runs on); op runs input i, a pure
// function of (seed, i), and reports what it did. With r.tr set, op records
// spans and per-layer counts.
type workload interface {
	setUp(r *runner) error
	op(r *runner, i int) opStats
	// layers adds the workload's per-layer metrics after the traced pass
	// and returns its micro timings with the busy time they are shares of.
	layers(r *runner, traced []opStats) ([]micro, time.Duration, error)
	close()
}

// opStats is what one op did. wall covers only the timed work: set-up and
// output checks inside an op are excluded.
type opStats struct {
	wall       time.Duration
	attempted  int
	failed     int
	trials     int
	frames     uint64
	trialWalls []time.Duration
	findWalls  []time.Duration
	// digest fingerprints the op's virtual statistics (frames, findings,
	// virtual times); the traced pass must reproduce it exactly.
	digest string
}

// runner carries one run's inputs, scratch space and collected numbers.
type runner struct {
	seed   int64
	budget time.Duration
	dir    string // scratch directory inside the checkout
	tr     *tracer
	notes  []string
	layer  map[string]float64
	// setups holds the timed cold set-ups.
	setups []time.Duration
}

func (r *runner) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// failf records a failed output check as a note; the caller counts it.
func (r *runner) failf(format string, args ...any) {
	r.notef("FAIL: "+format, args...)
}

func (r *runner) set(name string, v float64) { r.layer[name] = v }

var workloads = map[string]func() workload{
	"fleet-blind":       func() workload { return &fleetBlind{} },
	"guided-pipeline":   func() workload { return &guidedPipeline{} },
	"vehicle-telemetry": func() workload { return &vehicleTelemetry{} },
	"service-inproc":    func() workload { return &serviceInproc{} },
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// manifest is the part of BENCHMARK.json the harness reads: the metric
// names and units it must print.
type manifest struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "canbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	runtime.GOMAXPROCS(maxProcs)
	fs := flag.NewFlagSet("canbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return errors.New("--seconds must be >= 1")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), *name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &runner{seed: *seed, budget: time.Duration(*seconds) * time.Second, dir: dir, layer: map[string]float64{}}
	w := mk()
	defer w.close()
	res, err := measure(r, w, *trace == 1)
	if err != nil {
		return err
	}

	want := man.EndToEnd
	if *trace == 1 {
		want = man.PerLayer
	}
	out := resultOut{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricOut{}}
	known := map[string]bool{}
	for _, m := range want {
		known[m.Name] = true
		v, ok := res.metrics[m.Name]
		if !ok && *trace == 0 {
			return fmt.Errorf("workload %s did not produce %s", *name, m.Name)
		}
		// A per-layer metric the workload does not exercise reads 0.
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	var unknown []string
	for k := range res.metrics {
		if !known[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("metrics missing from BENCHMARK.json: %s", strings.Join(unknown, ", "))
	}
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%d failed operations", out.Failed)
	}
	return nil
}

type measured struct {
	attempted, failed int
	metrics           map[string]float64
}

// measure times the workload's cold set-ups, runs ops until the budget is
// spent, and derives the end-to-end metrics. With traced set it gives the
// untraced pass half the budget, replays the same inputs with spans on,
// and returns the per-layer metrics instead.
func measure(r *runner, w workload, traced bool) (measured, error) {
	if err := w.setUp(r); err != nil {
		return measured{}, fmt.Errorf("set-up: %w", err)
	}
	budget := r.budget
	if traced {
		budget /= 2
	}
	// Ops run in the first warmUp are checked but not timed: caches fill
	// and the heap grows first. The timed cold set-ups follow them, so
	// setup_s measures the set-up code rather than the process starting.
	warmUp := min(time.Second, budget/8)
	var ops []opStats
	i := 0
	for start := time.Now(); i == 0 || time.Since(start) < warmUp; i++ {
		ops = append(ops, w.op(r, i))
	}
	timedFrom := i
	for k := 0; k < setupReps; k++ {
		// Each cold set-up starts from a collected heap, as a process's
		// first one does, so collector phase does not enter setup_s.
		runtime.GC()
		t0 := time.Now()
		if err := w.setUp(r); err != nil {
			return measured{}, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0))
	}
	// After the budget, a run whose trial count sits near a rung of the
	// tail ladder goes on until it is clear of it, so that every seed's
	// tail is read at the same percentile.
	trials := 0
	for start := time.Now(); i == timedFrom || time.Since(start) < budget ||
		nearRung(trials) && time.Since(start) < 3*budget; i++ {
		ops = append(ops, w.op(r, i))
		trials += len(ops[i].trialWalls)
	}
	m := measured{metrics: map[string]float64{}}
	all := sumOps(ops)
	m.attempted, m.failed = all.attempted, all.failed
	if !traced {
		sum := sumOps(ops[timedFrom:])
		frames, trials, windows := windowRates(ops[timedFrom:])
		m.metrics["setup_s"] = median(r.setups).Seconds()
		m.metrics["frames_per_s"] = frames
		m.metrics["trials_per_s"] = trials
		m.metrics["trial_wall_p50_ms"] = ms(median(sum.trialWalls))
		tail, pct := tailPercentile(sum.trialWalls)
		m.metrics["trial_wall_tail_ms"] = ms(tail)
		m.metrics["first_finding_wall_ms"] = ms(median(sum.findWalls))
		m.metrics["peak_rss_mb"] = peakRSSMiB()
		r.notef("setup_s is the median of %d cold set-ups", len(r.setups))
		r.notef("frames_per_s and trials_per_s are medians over %d windows of at least %v", windows, rateWindow)
		r.notef("trial_wall_tail_ms is p%g of %d trial walls (%d beyond it)",
			pct, len(sum.trialWalls), beyond(len(sum.trialWalls), pct))
		r.notef("first_finding_wall_ms is the median of %d trials", len(sum.findWalls))
		r.notef("%d ops (%d warm-up), %d trials, %d frames in %.3fs timed",
			len(ops), timedFrom, sum.trials, sum.frames, sum.wall.Seconds())
		return m, nil
	}

	// Traced pass: the same inputs again, with spans and layer counts.
	r.tr = newTracer()
	traced0 := make([]opStats, len(ops))
	for i := range ops {
		traced0[i] = w.op(r, i)
		if traced0[i].digest != ops[i].digest {
			m.failed++
			r.failf("op %d: virtual statistics differ between untraced and traced pass", i)
		}
	}
	tsum := sumOps(traced0)
	m.attempted += tsum.attempted
	m.failed += tsum.failed
	micros, busy, err := w.layers(r, traced0)
	if err != nil {
		return measured{}, err
	}
	r.reconcile(busy, micros)
	r.set("trace.overhead", tsum.wall.Seconds()/all.wall.Seconds()-1)
	r.set("trace.spans", float64(len(r.tr.spans)))
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", filepath.Base(r.dir), r.seed))
	if err := r.tr.write(path); err != nil {
		return measured{}, err
	}
	r.notef("traced pass: %d ops, %d spans written to %s", len(traced0), len(r.tr.spans), path)
	m.metrics = r.layer
	return m, nil
}

// rateWindow is the least timed wall a rate window holds.
const rateWindow = 250 * time.Millisecond

// windowRates cuts the ops into consecutive windows of at least rateWindow
// of timed wall and returns the median frames/s and trials/s over them,
// with the window count. Medians keep a burst of interference from other
// work on the machine to the windows it hit.
func windowRates(ops []opStats) (frames, trials float64, windows int) {
	var fr, tr []float64
	var w opStats
	for k, o := range ops {
		w.wall += o.wall
		w.frames += o.frames
		w.trials += o.trials
		if w.wall >= rateWindow || (k == len(ops)-1 && len(fr) == 0) {
			fr = append(fr, float64(w.frames)/w.wall.Seconds())
			tr = append(tr, float64(w.trials)/w.wall.Seconds())
			w = opStats{}
		}
	}
	return medianF(fr), medianF(tr), len(fr)
}

// sumOps folds ops into one opStats (walls summed, samples concatenated).
func sumOps(ops []opStats) opStats {
	var s opStats
	for _, o := range ops {
		s.wall += o.wall
		s.attempted += o.attempted
		s.failed += o.failed
		s.trials += o.trials
		s.frames += o.frames
		s.trialWalls = append(s.trialWalls, o.trialWalls...)
		s.findWalls = append(s.findWalls, o.findWalls...)
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
