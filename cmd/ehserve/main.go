// Command ehserve is a long-running HTTP/JSON service over the EH
// model: it answers figure, sweep and model queries without paying a
// process start or a simulation re-run for repeated questions.
//
// Endpoints:
//
//	GET /healthz                    liveness probe
//	GET /metrics?format=json        request + result-store accounting
//	GET /v1/figure?id=5&quick=true  regenerate a paper figure (or "all")
//	GET /v1/sweep?lo=1&hi=1e3&n=50  Eq. 8 progress over a τ_B range
//	GET /v1/model?tau_b=10&e=100    one closed-form model evaluation
//	GET /v1/trace/{id}              span tree of a recent request (?format=chrome)
//	GET /v1/metrics/series          sampled per-interval metrics deltas
//	GET /v1/events                  live request/cell completions (SSE)
//
// /v1/model and /v1/sweep accept every Table I parameter as a query key
// (e, epsilon, epsilon_c, tau_b, sigma_b, omega_b, a_b, alpha_b,
// sigma_r, omega_r, a_r, alpha_r), defaulting to the paper's
// illustrative configuration.
//
// Figure responses are memoized twice over: identical in-flight
// requests collapse onto one generation (singleflight), the rendered
// response bytes are cached (the X-EH-Cache header reports hit, miss or
// coalesced), and underneath, every simulation cell goes through the
// same content-addressed result store the ehfigs -cache flag uses — so
// with -cache disk, a restarted server still answers warm. Simulations
// always run on the batched engine; the reference engine, which the
// equivalence oracle proves byte-identical, is an ehsim and ehfigs flag.
// -workers bounds the simulations running at once per process: every
// request's sweeps share one pool of that many slots.
//
// Every request is traced: the X-EH-Trace response header names a span
// tree (request parse, cache lookup, singleflight wait, each simulation
// cell, render) retrievable from /v1/trace/{id} while it stays in the
// bounded trace store. Send X-EH-Trace on the request to pick the ID.
// /v1/figure?provenance=1 additionally wraps the payload in an envelope
// reporting, per simulation cell, whether it was computed, recalled,
// deduplicated or bypassed, and what the producing run cost.
//
// SIGINT/SIGTERM drain in-flight requests before exit and log a final
// accounting line (requests served, spans recorded, store hit rate).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ehmodel/internal/device"
	"ehmodel/internal/obsv"
	"ehmodel/internal/runner"
	"ehmodel/internal/sweep"
)

func main() {
	os.Exit(cliMain())
}

// Connection limits. There is deliberately no WriteTimeout: it would
// cut /v1/events SSE streams and long cold id=all figure generations
// short; -request-timeout bounds handler work instead. IdleTimeout sits
// far above any client's keep-alive gap between requests.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer builds the listening server with the connection limits
// above, so a slow or idle client cannot pin a connection forever. Every
// request's context derives from base.
func newHTTPServer(addr string, h http.Handler, base context.Context) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		BaseContext:       func(net.Listener) context.Context { return base },
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// baseContext is the root of every request's context: one pool of
// workers slots that the simulations of all requests share, and the
// runTimeout deadline of each simulation. It derives from
// context.Background, not from the signal context, so SIGTERM drains
// in-flight requests instead of cancelling them.
func baseContext(workers int, runTimeout time.Duration) context.Context {
	ctx := device.WithEnv(context.Background(), device.Env{RunTimeout: runTimeout})
	return runner.WithLimit(ctx, workers)
}

func cliMain() int {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	cacheMode := flag.String("cache", "mem", "result store: mem (in-process LRU), disk (persistent CAS under -cache-dir) or off")
	cacheDir := flag.String("cache-dir", "results/cache", "directory for the on-disk result store (with -cache disk)")
	workers := flag.Int("workers", 0, "simulations run at once across all requests of the process (0 = GOMAXPROCS)")
	runTimeout := flag.Duration("run-timeout", 0, "wall-clock deadline per simulation run (0 = none)")
	reqTimeout := flag.Duration("request-timeout", 10*time.Minute, "deadline per HTTP request (0 = none)")
	traceCap := flag.Int("trace-store", obsv.DefaultTraceCapacity, "request traces retained for /v1/trace/{id} (0 disables tracing)")
	seriesEvery := flag.Duration("series-interval", 10*time.Second, "metrics sampling interval for /v1/metrics/series")
	seriesWindow := flag.Int("series-window", obsv.DefaultSeriesWindow, "samples retained for /v1/metrics/series")
	flag.Parse()

	exec, err := sweep.OpenExecutor(*cacheMode, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ehserve:", err)
		return 2
	}
	sweep.SetDefault(exec)

	s := newServer(*reqTimeout)
	if *traceCap > 0 {
		s.traces = obsv.NewTraceStore(*traceCap)
	} else {
		s.traces = nil
	}
	s.series = obsv.NewSeries(*seriesWindow)
	srv := newHTTPServer(*addr, s.handler(), baseContext(*workers, *runTimeout))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *seriesEvery > 0 {
		go s.sampleLoop(ctx, *seriesEvery)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("ehserve: listening on %s (cache %s)", *addr, *cacheMode)

	select {
	case <-ctx.Done():
		// Drain: stop accepting, let in-flight requests finish (briefly).
		shctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shctx); err != nil {
			fmt.Fprintln(os.Stderr, "ehserve: shutdown:", err)
			return 1
		}
		st := exec.Stats()
		log.Printf("ehserve: drained (%d cells: %d hits, %d misses, %d deduplicated, %d bypassed)",
			st.Total(), st.Hits, st.Misses, st.Dedup, st.Bypass)
		log.Printf("ehserve: telemetry %s", s.drainSummary())
		return 0
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "ehserve:", err)
		return 1
	}
}
