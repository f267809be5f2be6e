package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaignd"
	"repro/internal/campsrv"
)

// newService starts an in-process campsrv server standing in for
// canfuzzd, plus one worker serving it with the CLI's own runtime builder.
// The worker is what runWorker builds, minus the process-wide logger that
// every run call replaces — sharing it with the concurrent client runs
// below would race. The returned stop shuts the service down and waits
// for the worker to exit cleanly.
func newService(t *testing.T, token string) (url string, stop func()) {
	t.Helper()
	s, err := campsrv.New(campsrv.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler(campsrv.HandlerConfig{AuthToken: token}))
	workerDone := make(chan error, 1)
	go func() {
		w := &campaignd.Worker{
			Client: &campaignd.Client{Base: hs.URL, Token: token},
			Name:   "w1",
			Build:  buildRuntime,
		}
		workerDone <- w.Run(context.Background())
	}()
	return hs.URL, func() {
		s.BeginShutdown()
		if err := <-workerDone; err != nil {
			t.Errorf("worker: %v", err)
		}
		hs.Close()
		s.Close()
	}
}

// runStdout runs the CLI with stdout redirected to a file and returns what
// it printed.
func runStdout(t *testing.T, args ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = saved
	f.Close()
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunServiceClientModes(t *testing.T) {
	// CLI-level smoke of the campaign-service path: `-submit -watch` rides
	// campaigns to completion, `-status` renders the fleet table.
	url, stop := newService(t, "hunter2")
	defer stop()

	err := run([]string{"-target", "bench", "-ids", "215", "-trials", "3",
		"-dur", "30m", "-seed", "9", "-submit", url, "-watch", "-json",
		"-priority", "2", "-token", "hunter2"})
	if err != nil {
		t.Fatalf("submit -watch: %v", err)
	}

	// A watched guided campaign writes the merged corpus, byte-identical to
	// the one the in-process fleet writes for the same flags.
	dir := t.TempDir()
	guided := []string{"-target", "bench", "-mode", "guided", "-trials", "3",
		"-dur", "30m", "-seed", "11"}
	local := filepath.Join(dir, "local.corpus")
	if err := run(append(guided[:len(guided):len(guided)], "-workers", "1", "-corpus-out", local)); err != nil {
		t.Fatalf("in-process guided fleet: %v", err)
	}
	remote := filepath.Join(dir, "remote.corpus")
	if err := run(append(guided[:len(guided):len(guided)],
		"-submit", url, "-watch", "-token", "hunter2", "-corpus-out", remote)); err != nil {
		t.Fatalf("guided submit -watch -corpus-out: %v", err)
	}
	want, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(remote)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("-submit -watch -corpus-out wrote %d bytes, in-process fleet %d; contents differ",
			len(got), len(want))
	}
	// Without -watch there is no report to take the corpus from.
	if err := run(append(guided[:len(guided):len(guided)],
		"-submit", url, "-token", "hunter2", "-corpus-out", remote)); err == nil {
		t.Fatal("-submit -corpus-out without -watch succeeded, want error")
	}

	if err := run([]string{"-status", url, "-token", "hunter2"}); err != nil {
		t.Fatalf("status: %v", err)
	}
	// Wrong token must be a hard client error, not a silent retry loop.
	if err := run([]string{"-status", url, "-token", "wrong"}); err == nil {
		t.Fatal("status with a bad token succeeded, want error")
	}
}

func TestRunSubmitWatchMatchesInProcess(t *testing.T) {
	// `-submit -watch -json` is the distributed form of a local fleet run:
	// its stdout must be byte-identical to `-trials N -workers 1 -json`.
	flags := []string{"-target", "bench", "-ids", "215", "-trials", "4",
		"-dur", "30m", "-seed", "9", "-json"}
	want := runStdout(t, append(flags[:len(flags):len(flags)], "-workers", "1")...)

	url, stop := newService(t, "")
	defer stop()
	got := runStdout(t, append(flags[:len(flags):len(flags)], "-submit", url, "-watch")...)
	if !bytes.Equal(got, want) {
		t.Fatalf("-submit -watch -json output differs from the in-process run:\n--- service ---\n%s\n--- in-process ---\n%s", got, want)
	}
}

func TestRunWorkerServesService(t *testing.T) {
	// `-worker URL` end to end: it serves a campaign to completion and
	// exits cleanly once the service shuts down. No other run call is in
	// flight, so the worker may own the process-wide logger.
	s, err := campsrv.New(campsrv.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler(campsrv.HandlerConfig{}))
	defer hs.Close()
	v, err := s.Submit(campsrv.Submission{Spec: campaignd.CampaignSpec{
		Target: "bench", BCMCheck: "byte", StopOnFinding: true,
		Trials: 2, BaseSeed: 9, MaxPerTrialNanos: int64(10 * time.Second),
	}})
	if err != nil {
		t.Fatal(err)
	}

	workerDone := make(chan error, 1)
	go func() { workerDone <- run([]string{"-worker", hs.URL, "-worker-name", "w1"}) }()
	deadline := time.Now().Add(time.Minute)
	for {
		d, err := s.Detail(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if d.State == campsrv.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck in %s", d.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.BeginShutdown()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
}
