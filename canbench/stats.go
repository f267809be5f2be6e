package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// median returns the middle sample (mean of the two middle ones for an
// even count), or 0 for none.
func median(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianF is median for plain numbers.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// tailPercentiles is the ladder the tail metric climbs. The rungs are a
// decade apart so that a run's sample count, which varies a little with
// the seed, stays on one rung and the same percentile is compared.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// nearRung reports whether n samples lie within 25% below or above a
// count at which tailPercentile moves to the next rung.
func nearRung(n int) bool {
	for _, p := range tailPercentiles {
		b := 10 / (1 - p/100) // the least n with ten samples beyond p
		if float64(n) >= 0.8*b && float64(n) < 1.25*b {
			return true
		}
	}
	return false
}

// rank is the nearest-rank index of percentile p among n sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps 0.99*1000 from rounding up past 990.
	k := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	return k
}

// beyond is how many of n samples lie past the percentile-p sample.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// tailPercentile returns the highest ladder percentile with at least ten
// samples beyond it, and that percentile. With fewer than 21 samples no
// percentile qualifies and the maximum (p100) is returned.
func tailPercentile(xs []time.Duration) (time.Duration, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	best := -1.0
	for _, p := range tailPercentiles {
		if beyond(len(s), p) >= 10 {
			best = p
		}
	}
	if best < 0 {
		return s[len(s)-1], 100
	}
	return s[rank(len(s), best)], best
}

// tracer records spans in memory: name, start, end, parent and trial id,
// in nanoseconds since the traced pass began. Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Parent int    `json:"parent"` // index of the parent span, -1 for none
	Trial  int    `json:"trial"`  // -1 when the span is not inside a trial
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; a nil tracer returns -1.
func (t *tracer) begin(name string, parent, trial int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Trial: trial})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timed accumulates call counts and busy time for one wrapped function.
type timed struct {
	mu    sync.Mutex
	calls int
	busy  time.Duration
}

func (c *timed) add(d time.Duration) {
	c.mu.Lock()
	c.calls++
	c.busy += d
	c.mu.Unlock()
}

// meanUs is the mean call time in microseconds (0 without calls).
func (c *timed) meanUs() float64 {
	if c.calls == 0 {
		return 0
	}
	return us(c.busy) / float64(c.calls)
}
