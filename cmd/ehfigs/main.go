// Command ehfigs regenerates every table and figure of the paper's
// evaluation (Figs. 2–11 and the §VI case studies), rendering ASCII
// charts with the derived scalars and optionally dumping CSVs.
//
// Simulation sweeps run through the parallel sweep engine. Every
// requested figure's driver runs at once, and -workers bounds the
// simulations running at once across all of them; -run-timeout caps
// each simulation, and SIGINT or SIGTERM cancels the sweeps while still
// rendering and flushing the points that finished. A failing figure no
// longer aborts the rest of an `-fig all` run — survivors render,
// failures are summarized, and the exit status is non-zero only if
// something failed.
//
// Memoization: -cache selects the result store (mem, disk or off).
// Every simulation cell is keyed by a content hash of its workload,
// strategy and device configuration; identical cells within one run are
// deduplicated, and -cache disk persists results under -cache-dir so a
// re-run answers unchanged cells from the content-addressed store
// instead of simulating. Figures are byte-identical at any cache
// temperature.
//
// Observability: -trace FILE writes every sweep device's lifecycle onto
// its own thread of one Chrome trace_event timeline, -trace-spans FILE
// writes the run's wall-clock span tree (figure generation, every
// simulation cell with its cache outcome, CSV renders — the same
// document ehserve serves at /v1/trace/{id}), -metrics FILE exports
// loss-free aggregated counters across all workers (with the sweep
// engine's per-class failure counts and the result store's
// hit/miss/dedup accounting), and the -cpuprofile, -memprofile and
// -pprof flags expose the Go profiling hooks.
//
// Example:
//
//	ehfigs -fig all -quick -csv out/ -cache disk -metrics figs.csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ehmodel/internal/device"
	"ehmodel/internal/experiments"
	"ehmodel/internal/obsv"
	"ehmodel/internal/profiling"
	"ehmodel/internal/runner"
	"ehmodel/internal/sweep"
	"ehmodel/internal/textplot"
)

func main() {
	os.Exit(cliMain())
}

func cliMain() int {
	fig := flag.String("fig", "all", "which figure: all, "+strings.Join(experiments.FigureIDs(), ", "))
	quick := flag.Bool("quick", false, "scaled-down simulation sweeps (same shapes, ~100× faster)")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV files (created if missing)")
	workers := flag.Int("workers", 0, "simulations run at once across all figures (0 = GOMAXPROCS)")
	runTimeout := flag.Duration("run-timeout", 0, "wall-clock deadline per simulation run (0 = none)")
	engineName := flag.String("engine", "batched", "execution engine: batched (event-horizon) or reference (per-instruction); results are byte-identical")
	cacheMode := flag.String("cache", "mem", "result store: mem (in-process LRU), disk (persistent CAS under -cache-dir) or off")
	cacheDir := flag.String("cache-dir", "results/cache", "directory for the on-disk result store (with -cache disk)")
	traceFile := flag.String("trace", "", "write every device's lifecycle to this Chrome trace_event JSON file (chrome://tracing, Perfetto)")
	traceSpans := flag.String("trace-spans", "", "write the run's wall-clock span tree (figure generation, each simulation cell, CSV renders) to this JSON file")
	metricsFile := flag.String("metrics", "", "write aggregated sweep metrics to this file (CSV, or JSON with a .json suffix)")
	var prof profiling.Flags
	prof.Register()
	flag.Parse()

	engine, err := device.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ehfigs:", err)
		return 2
	}
	device.SetDefaultEngine(engine)

	exec, err := sweep.OpenExecutor(*cacheMode, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ehfigs:", err)
		return 2
	}
	sweep.SetDefault(exec)

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ehfigs:", err)
		return 2
	}
	finish := func(code int) int {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "ehfigs:", err)
			if code == 0 {
				code = 1
			}
		}
		return code
	}

	// Every device any sweep driver builds — many call layers down —
	// picks up its tracer here: a fresh per-worker Metrics sink from the
	// collector (merged loss-free at export) and its own thread of the
	// shared Chrome timeline.
	var coll *obsv.Collector
	var chrome *obsv.ChromeSink
	if *metricsFile != "" {
		coll = obsv.NewCollector()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ehfigs:", err)
			return finish(1)
		}
		chrome = obsv.NewChromeSink(f)
	}
	if coll != nil || chrome != nil {
		var tid atomic.Int32
		device.SetDefaultObserver(func() obsv.Tracer {
			var ts []obsv.Tracer
			if chrome != nil {
				ts = append(ts, obsv.WithTid(chrome, tid.Add(1)))
			}
			if coll != nil {
				ts = append(ts, coll.Tracer())
			}
			return obsv.Combine(ts...)
		})
		defer device.SetDefaultObserver(nil)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -trace-spans runs the whole generation as one trace: the same
	// span vocabulary a traced ehserve request records (cells with
	// outcome and device.run children, CSV renders), without a server.
	var spanTrace *obsv.Trace
	if *traceSpans != "" {
		spanTrace = obsv.NewTrace(obsv.NewTraceID(), 0)
		ctx = obsv.ContextWithTrace(ctx, spanTrace)
	}

	ropts := runner.Options{Workers: *workers, RunTimeout: *runTimeout}
	runErr := run(ctx, *fig, *quick, *csvDir, ropts, exec, coll, *metricsFile)
	if spanTrace != nil {
		if err := writeSpanTree(*traceSpans, spanTrace); err != nil {
			fmt.Fprintln(os.Stderr, "ehfigs: trace-spans:", err)
			if runErr == nil {
				runErr = err
			}
		} else {
			fmt.Printf("wrote span tree to %s\n", *traceSpans)
		}
	}
	if chrome != nil {
		if err := chrome.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ehfigs: trace:", err)
		} else {
			fmt.Printf("wrote Chrome trace to %s\n", *traceFile)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "ehfigs:", runErr)
		return finish(1)
	}
	return finish(0)
}

// run generates, renders and dumps the requested figures. Every figure
// that produced data — including partial sweeps interrupted by a
// signal or a deadline — is rendered and written to CSV before the
// failure summary decides the exit status. When a collector is
// attached, the aggregated metrics (plus the sweep engine's per-class
// failure counts and the result store's counters) are exported to
// metricsFile.
func run(ctx context.Context, which string, quick bool, csvDir string, ropts runner.Options, exec *sweep.Executor, coll *obsv.Collector, metricsFile string) error {
	genCtx, gsp := obsv.StartSpan(ctx, "generate")
	gsp.SetAttr("figure", which)
	figs, failures := experiments.GenerateFigures(genCtx, which, quick, ropts)
	gsp.Finish()
	for _, f := range figs {
		render(f)
		if csvDir != "" {
			start := time.Now()
			err := writeCSV(f, csvDir)
			obsv.AddSpan(ctx, "render.csv", start, time.Now(), obsv.Attr{Key: "figure", Val: f.ID})
			if err != nil {
				failures = append(failures, experiments.Failure{ID: f.ID, Err: err})
			}
		}
	}
	if st := exec.Stats(); exec.Store() != nil && st.Total() > 0 {
		fmt.Printf("result store: %d hits, %d misses, %d deduplicated, %d bypassed\n",
			st.Hits, st.Misses, st.Dedup, st.Bypass)
	}
	if coll != nil {
		agg := coll.Aggregate()
		st := exec.Stats()
		agg.AddCache(st.Hits, st.Misses, st.Bypass, st.Dedup, st.StoreErrors)
		for _, fl := range failures {
			var rerrs runner.Errors
			if errors.As(fl.Err, &rerrs) {
				for class, n := range rerrs.ClassCounts() {
					agg.AddErrorClass(class, n)
				}
			}
		}
		if err := writeMetrics(metricsFile, agg); err != nil {
			failures = append(failures, experiments.Failure{ID: "metrics", Err: err})
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "ehfigs: %d figure(s) failed:\n", len(failures))
		for _, fl := range failures {
			fmt.Fprintf(os.Stderr, "  %s: %v\n", fl.ID, fl.Err)
		}
		return fmt.Errorf("%d of %d figure(s) incomplete", len(failures), len(figs)+len(failures))
	}
	return nil
}

func render(f *experiments.Figure) {
	fmt.Printf("── %s ─ %s ──\n", f.ID, f.Title)
	if len(f.Series) > 0 {
		var series []textplot.Series
		for _, s := range f.Series {
			ts := textplot.Series{Label: s.Label}
			for _, p := range s.Points {
				ts.Xs = append(ts.Xs, p.X)
				ts.Ys = append(ts.Ys, p.Y)
			}
			series = append(series, ts)
		}
		fmt.Print(textplot.Chart(
			fmt.Sprintf("y: %s   x: %s", f.YLabel, f.XLabel),
			series, 72, 18, f.XLog))
	}
	for _, n := range f.Notes {
		fmt.Println("  •", n)
	}
	fmt.Println()
}

// writeSpanTree exports the run's trace as an indented JSON span tree —
// the same document /v1/trace/{id} serves.
func writeSpanTree(path string, tr *obsv.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tr.Snapshot().WriteTree(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeMetrics exports the aggregated metrics as CSV, or JSON when the
// file name says so.
func writeMetrics(path string, m *obsv.Metrics) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = m.WriteJSON(f)
	} else {
		err = m.WriteCSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Printf("wrote sweep metrics to %s\n", path)
	}
	return err
}

func writeCSV(f *experiments.Figure, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(dir, strings.ReplaceAll(f.ID, "/", "_")+".csv")
	file, err := os.Create(name)
	if err != nil {
		return err
	}
	defer file.Close()
	if err := f.WriteCSV(file); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", name)
	return nil
}
