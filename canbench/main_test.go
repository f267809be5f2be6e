package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"repro/internal/campsrv"
	"repro/internal/findings"
	"repro/internal/fleet"
	"repro/internal/target"
)

func durations(n int) []time.Duration {
	xs := make([]time.Duration, n)
	for i := range xs {
		xs[i] = time.Duration(n-i) * time.Millisecond // unsorted on purpose
	}
	return xs
}

func TestTailPercentilePicksHighestWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		pct  float64
		want time.Duration
	}{
		{19, 100, 19 * time.Millisecond}, // no rung has ten beyond: the maximum
		{20, 50, 10 * time.Millisecond},
		{100, 90, 90 * time.Millisecond},
		{999, 90, 900 * time.Millisecond},
		{1000, 99, 990 * time.Millisecond},
		{10000, 99.9, 9990 * time.Millisecond},
	} {
		got, pct := tailPercentile(durations(tc.n))
		if pct != tc.pct || got != tc.want {
			t.Errorf("n=%d: got p%g = %v, want p%g = %v", tc.n, pct, got, tc.pct, tc.want)
		}
		if pct < 100 && beyond(tc.n, pct) < 10 {
			t.Errorf("n=%d: p%g has %d samples beyond it", tc.n, pct, beyond(tc.n, pct))
		}
		for _, p := range tailPercentiles {
			if p > pct && beyond(tc.n, p) >= 10 {
				t.Errorf("n=%d: higher rung p%g also has ten beyond", tc.n, p)
			}
		}
	}
}

// TestInprocMatchesHTTPTest sends the same request sequence to two fresh
// daemons, one through the in-memory transport and one through a real
// httptest server, and expects the same status and body for each.
func TestInprocMatchesHTTPTest(t *testing.T) {
	newSrv := func() *campsrv.Server {
		s, err := campsrv.New(campsrv.Config{DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	a, b := newSrv(), newSrv()
	inClient := &http.Client{Transport: newInproc(a.Handler(campsrv.HandlerConfig{}))}
	hs := httptest.NewServer(b.Handler(campsrv.HandlerConfig{}))
	defer hs.Close()

	sub, err := json.Marshal(campsrv.Submission{Spec: svSpec(7), Priority: 2})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []struct{ method, path string }{
		{"POST", "/campaigns"},
		{"GET", "/campaignd/spec?campaign=c0001"},
		{"POST", "/campaignd/lease?worker=w1"},
		{"POST", "/campaignd/result?campaign=c0001&trial=x"},
		{"GET", "/campaigns/c0001/report.json"},
		{"GET", "/campaigns/c0099"},
	}
	do := func(c *http.Client, base, method, path string) (int, []byte) {
		var body io.Reader
		if method == "POST" {
			body = bytes.NewReader(sub)
		}
		req, err := http.NewRequest(method, base+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}
	// A campaign view carries the wall time since submission; zero it.
	wall := regexp.MustCompile(`"wallSeconds":[^,}]*`)
	for _, rq := range reqs {
		gotCode, got := do(inClient, svBase, rq.method, rq.path)
		wantCode, want := do(hs.Client(), hs.URL, rq.method, rq.path)
		got = wall.ReplaceAll(got, []byte(`"wallSeconds":0`))
		want = wall.ReplaceAll(want, []byte(`"wallSeconds":0`))
		if gotCode != wantCode || !bytes.Equal(got, want) {
			t.Errorf("%s %s: in-memory %d %q, httptest %d %q", rq.method, rq.path, gotCode, got, wantCode, want)
		}
	}
}

// Each output check must reject a deliberately wrong expected value.

func TestFleetChecksRejectWrongValues(t *testing.T) {
	rep, err := fleet.Run(fleet.Config{Trials: 4, Workers: 1, BaseSeed: 3, MaxPerTrial: fbMaxPerTrial},
		func(ts fleet.TrialSpec) (*fleet.World, error) {
			b, err := target.Build(fbSpec, fbConfig(ts.Seed), target.Options{})
			if err != nil {
				return nil, err
			}
			return b.World, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	js := buf.Bytes()
	if err := checkSameReport(js, js); err != nil {
		t.Fatal(err)
	}
	wrong := bytes.Replace(js, []byte(`"framesSent": `), []byte(`"framesSent": 1`), 1)
	if checkSameReport(js, wrong) == nil {
		t.Error("report check accepted a different report")
	}
	res := rep.Results[0]
	if err := checkUnlockTrial(res); err != nil {
		t.Fatal(err)
	}
	res.TriggerID = "216"
	if checkUnlockTrial(res) == nil {
		t.Error("trial check accepted trigger 216")
	}
}

func TestPipelineCheckRejectsWrongValues(t *testing.T) {
	r := &runner{seed: 5, dir: t.TempDir(), layer: map[string]float64{}}
	g := &guidedPipeline{}
	if err := g.setUp(r); err != nil {
		t.Fatal(err)
	}
	if st := g.op(r, 0); st.failed != 0 {
		t.Fatalf("pipeline instance failed: %v", r.notes)
	}
	pass := &findings.SuiteReport{Records: 1, Pass: 1}
	if err := checkPipeline([]string{gpTrigger}, pass, gpTrigger); err != nil {
		t.Fatal(err)
	}
	if checkPipeline([]string{gpTrigger}, pass, "215#21") == nil {
		t.Error("pipeline check accepted the wrong trigger")
	}
	if checkPipeline([]string{gpTrigger}, &findings.SuiteReport{Records: 1, Fail: 1}, gpTrigger) == nil {
		t.Error("pipeline check accepted a failed replay")
	}
}

func TestVehicleCheckRejectsWrongValues(t *testing.T) {
	v := &vehicleTelemetry{}
	got, _, _, err := v.trial(&runner{}, vtCanarySeed, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkVehicleCounts(got, vtCanary); err != nil {
		t.Fatal(err)
	}
	wrong := vtCanary
	wrong.TraceTotal++
	if checkVehicleCounts(got, wrong) == nil {
		t.Error("vehicle check accepted a wrong tracer total")
	}
}

func TestServiceReportCheckRejectsWrongValues(t *testing.T) {
	r := &runner{seed: 9, dir: t.TempDir(), layer: map[string]float64{}}
	s := &serviceInproc{}
	defer s.close()
	st := s.op(r, 0)
	if st.failed != 0 || st.trials != 2*svTrials {
		t.Fatalf("round: %d failed, %d trials: %v", st.failed, st.trials, r.notes)
	}
	got, err := s.round.get("/campaigns/" + s.round.ids[0] + "/report.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.checkReport(s.round.specs[0], got); err != nil {
		t.Fatal(err)
	}
	// The other campaign's spec is a wrong expectation for this report.
	if s.checkReport(s.round.specs[1], got) == nil {
		t.Error("service check accepted another campaign's report")
	}
}
