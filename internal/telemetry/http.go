package telemetry

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Handler returns the live introspection endpoint:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON metrics snapshot
//	/trace.json    Chrome trace_event document (load in Perfetto)
//	/healthz       liveness + virtual-time progress
//
// All routes read atomically published state, so scraping while the
// simulation loop runs is race-free; a scrape observes the counters as of
// the last completed event.
func Handler(t *Telemetry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = t.Reg().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = t.Reg().WriteJSON(w)
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = t.Trc().WriteChromeTrace(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"virtualTimeMicros\":%d,\"traceEvents\":%d}\n",
			int64(t.Reg().Now()/time.Microsecond), t.Trc().Len())
	})
	return mux
}

// Serve starts the introspection endpoint on addr (e.g. "localhost:9900";
// a ":0" port picks a free one). It returns the server and its bound
// address; the caller shuts it down with Shutdown (graceful) or
// server.Close (abrupt).
func Serve(addr string, t *Telemetry) (*http.Server, string, error) {
	return ServeHandler(addr, Handler(t))
}

// ServeHandler is Serve for an arbitrary handler — the observatory and
// canfuzzd mount their extended muxes through it.
func ServeHandler(addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

// Shutdown drains the server gracefully: in-flight scrapes get up to grace
// to finish, then the server is closed hard. Safe on a nil server.
func Shutdown(srv *http.Server, grace time.Duration) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		_ = srv.Close()
	}
}

// Hold blocks for d or until ctx is cancelled — the -metrics-hold wait,
// interruptible by SIGINT when the caller wires signal.NotifyContext.
// d <= 0 returns immediately.
func Hold(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
