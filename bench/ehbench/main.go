// Command ehbench is the repository's benchmark: cold and warm figure
// sweeps, per-supply simulator throughput and open-loop ehserve latency
// end to end, plus a traced run that attributes time to each layer.
//
// Usage (from the repository root, through the wrapper that builds
// ehbench and ehserve from source):
//
//	bash bench/run.sh --workload figs-cold --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --seed 1 --out /tmp/ehb
//	bash bench/run.sh --workload figs-cold --seed 1 --trace 1 --out /tmp/ehb
//	bash bench/run.sh compare PARENT_DIR CHANGE_DIR
//
// Every run prints one line per metric (name, value, unit, sample count)
// and one per output check, then, as its last line, a JSON object with
// the keys correct, attempted, failed and metrics. With -trace 0 the
// metrics are the end-to-end ones; with -trace 1 they are the per-layer
// ledger. -out DIR also writes each result (and, traced, each span tree)
// under DIR, which is what compare reads. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one reported metric. Bound is the relative
// worsening an end-to-end metric may show before a change counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// e2eMetrics is reported by every workload. "op" is the workload's unit
// of work (see workloads); setup_s is its set-up phase.
var e2eMetrics = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// workload is one benchmark input set.
type workload struct {
	Name string
	// Op names the unit of work op_p50_ms times.
	Op  string
	Why string
	run func(ctx context.Context, e *env, r *result) error
}

var workloads = []workload{
	{"figs-cold", "one quick -fig all pass on a fresh memory store",
		"batch user's cold path: nearly every cell misses, so device.Run and the settle paths dominate and the store only takes writes",
		runFigsCold},
	{"figs-warm", "one disk-tier plus one memory-tier quick -fig all pass",
		"reads twin of figs-cold: every cell hits, the device does no work; key, store get, decode, assembly and CSV dominate",
		runFigsWarm},
	{"sim-bench", "host time per simulated megacycle, fixed-supply matrix",
		"device.Run on the fused settle path (no harvester, no faults), one thread, no sweep layer",
		simWorkload("bench")},
	{"sim-harvest", "host time per simulated megacycle, RF-harvester matrix",
		"device.Run on the StepN + settleBatch path that harvester supplies take, one thread, no sweep layer",
		simWorkload("harvest")},
	{"sim-fault", "host time per simulated megacycle, fault-injected matrix",
		"device.Run with power cuts, torn writes and bit flips: the fault settle path and checkpoint recovery",
		simWorkload("fault")},
	{"serve-light", "one ehserve request at 200 req/s open loop, timed from its release to the connection queue",
		"service user at low load: HTTP, response byte cache and closed-form core with no queueing",
		serveWorkload(200)},
	{"serve-heavy", "one ehserve request at 2000 req/s open loop, timed from its release to the connection queue",
		"service user below the knee: the same mix with queueing on two connections and a busy server",
		serveWorkload(2000)},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what every workload run shares.
type env struct {
	seed   int64
	run    time.Duration // how long the timed loop measures
	minOps int           // fewest timed operations, however long they take
	// setupReps is how many times a workload repeats its set-up phase;
	// setup_s is the median.
	setupReps int
	tmp       string // temporary root for stores and server working directories
	ehserve   string // path to the ehserve binary
	golden    *golden
	out       string // -out directory ("" = write nothing)
}

// workers is both GOMAXPROCS and runner.Options.Workers.
func workers() int { return runtime.NumCPU() }

func main() {
	if addr := os.Getenv(pingEnv); addr != "" {
		os.Exit(runPingServer(addr))
	}
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ehbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
	out := fs.String("out", "", "directory to write result JSON (and span trees when traced) into")
	ehserve := fs.String("ehserve", "", "ehserve binary for the serve workloads (built with go build when empty)")
	update := fs.Bool("update-golden", false, "regenerate the golden outputs (needs -seed 1) instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		if fs.Arg(0) == "compare" {
			return compareMain(fs.Args()[1:], stdout, stderr)
		}
		fmt.Fprintf(stderr, "ehbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "ehbench: -trace must be 0 or 1")
		return 2
	}
	var list []workload
	if *name == "all" && *traceFlag == 1 {
		// The ledger covers every workload's layers in one run.
		list = []workload{{Name: "all"}}
	} else if *name == "all" {
		list = workloads
	} else if w, ok := findWorkload(*name); ok {
		list = []workload{w}
	} else {
		fmt.Fprintf(stderr, "ehbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "ehbench: -seconds must be > 0")
		return 2
	}
	runtime.GOMAXPROCS(workers())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	gdir := findGoldenDir()
	tmp, err := os.MkdirTemp("", "ehbench-")
	if err != nil {
		fmt.Fprintln(stderr, "ehbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: *seed, run: time.Duration(*seconds * float64(time.Second)), minOps: 3, setupReps: 3,
		tmp: tmp, ehserve: *ehserve, out: *out}

	if *update {
		if *seed != 1 {
			fmt.Fprintln(stderr, "ehbench: -update-golden needs -seed 1")
			return 2
		}
		if err := updateGolden(ctx, gdir); err != nil {
			fmt.Fprintln(stderr, "ehbench: update golden:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ehbench: wrote golden outputs to", gdir)
		return 0
	}
	g, err := loadGolden(gdir)
	if err != nil {
		fmt.Fprintln(stderr, "ehbench:", err)
		return 1
	}
	e.golden = g
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "ehbench:", err)
			return 1
		}
	}
	if e.ehserve == "" && (*traceFlag == 1 || *name == "all" || strings.HasPrefix(*name, "serve-")) {
		if e.ehserve, err = buildEhserve(ctx, tmp); err != nil {
			fmt.Fprintln(stderr, "ehbench:", err)
			return 1
		}
	}

	var results []*result
	for _, w := range list {
		r := newResult(w.Name, *seed, *traceFlag == 1)
		var err error
		if r.Traced {
			fmt.Fprintf(stdout, "== %s (seed %d): traced per-layer ledger\n", w.Name, *seed)
			err = runLedger(ctx, e, r)
		} else {
			fmt.Fprintf(stdout, "== %s (seed %d): op = %s\n", w.Name, *seed, w.Op)
			err = w.run(ctx, e, r)
		}
		if err != nil {
			fmt.Fprintf(stderr, "ehbench: %s: %v\n", w.Name, err)
			return 1
		}
		if err := ctx.Err(); err != nil {
			fmt.Fprintln(stderr, "ehbench: interrupted")
			return 1
		}
		if err := r.validate(); err != nil {
			fmt.Fprintf(stderr, "ehbench: %s: %v\n", w.Name, err)
			return 1
		}
		r.print(stdout)
		if *out != "" {
			if err := r.write(*out); err != nil {
				fmt.Fprintln(stderr, "ehbench:", err)
				return 1
			}
		}
		results = append(results, r)
	}
	line, err := summaryLine(results)
	if err != nil {
		fmt.Fprintln(stderr, "ehbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// findGoldenDir locates bench/golden from the repository root, from
// bench/, or from bench/ehbench (where go test runs).
func findGoldenDir() string {
	for _, d := range []string{"bench/golden", "golden", "../golden"} {
		if st, err := os.Stat(d); err == nil && st.IsDir() {
			return d
		}
	}
	return "bench/golden"
}

// metric is one reported value with its sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// check is one output check; N counts how many times it passed.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	N      int    `json:"n"`
	Detail string `json:"detail,omitempty"`
}

// result is one workload run: what it attempted, what failed, what it
// measured and every output check it made.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Checks    []check           `json:"checks"`
	// Info holds extra samples worth keeping with the run (never gated).
	Info map[string]metric `json:"info,omitempty"`
}

func newResult(name string, seed int64, traced bool) *result {
	return &result{Workload: name, Seed: seed, Traced: traced, Metrics: map[string]metric{}, Info: map[string]metric{}}
}

// set records a gated metric (end to end, or per layer when traced).
func (r *result) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// info records an ungated extra.
func (r *result) info(name, unit string, v float64, n int) {
	r.Info[name] = metric{Value: v, Unit: unit, N: n}
}

// attempt counts one operation, failed unless ok.
func (r *result) attempt(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// check records an output check and returns ok.
func (r *result) check(name string, ok bool, format string, args ...any) bool {
	// Passing checks of the same name collapse into one line with a count.
	if ok {
		for i := range r.Checks {
			if r.Checks[i].Name == name && r.Checks[i].OK {
				r.Checks[i].N++
				return true
			}
		}
	}
	r.Checks = append(r.Checks, check{Name: name, OK: ok, N: 1, Detail: fmt.Sprintf(format, args...)})
	return ok
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return len(r.Checks) > 0
}

// validate checks that the run reported exactly the metrics it must.
func (r *result) validate() error {
	want := e2eMetrics
	if r.Traced {
		want = ledgerMetrics()
	}
	for _, d := range want {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s has unit %s, want %s", d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("%d metrics measured, %d declared", len(r.Metrics), len(want))
	}
	if r.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	return nil
}

func (r *result) print(w io.Writer) {
	names := func(m map[string]metric) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	for _, k := range names(r.Metrics) {
		m := r.Metrics[k]
		fmt.Fprintf(w, "metric  %-44s %16.6f %-9s n=%d\n", k, m.Value, m.Unit, m.N)
	}
	for _, k := range names(r.Info) {
		m := r.Info[k]
		fmt.Fprintf(w, "info    %-44s %16.6f %-9s n=%d\n", k, m.Value, m.Unit, m.N)
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check   %-44s %-4s n=%-6d %s\n", c.Name, status, c.N, c.Detail)
	}
	fmt.Fprintf(w, "ops     attempted=%d failed=%d correct=%t\n", r.Attempted, r.Failed, r.correct())
}

// write saves the result as DIR/<workload>-seed<N>[-trace].json.
func (r *result) write(dir string) error {
	name := fmt.Sprintf("%s-seed%d", r.Workload, r.Seed)
	if r.Traced {
		name += "-trace"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(b, '\n'), 0o644)
}

// summaryLine is the last stdout line. For one workload its metrics are
// that workload's; for several they are prefixed "<workload>/".
func summaryLine(rs []*result) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Metrics: map[string]val{}}
	for _, r := range rs {
		doc.Correct = doc.Correct && r.correct()
		doc.Attempted += r.Attempted
		doc.Failed += r.Failed
		for k, m := range r.Metrics {
			if len(rs) > 1 {
				k = r.Workload + "/" + k
			}
			doc.Metrics[k] = val{m.Value, m.Unit}
		}
	}
	return json.Marshal(doc)
}
