// Command ehsim runs one benchmark under one intermittent runtime on
// the device simulator and reports where its cycles and energy went —
// including a correctness check against the workload's reference
// output.
//
// Example:
//
//	ehsim -workload ds -strategy clank -period 20000 -supply multipeak
//
// Observability: -trace FILE writes a Chrome trace_event JSON timeline
// (open in chrome://tracing or https://ui.perfetto.dev), -metrics FILE
// exports aggregated run counters and histograms (CSV, or JSON with a
// .json suffix), and -cpuprofile/-memprofile/-pprof expose the Go
// profiling hooks. Every simulated device, in every mode, reports into
// both files, on its own trace thread. A bounded flight recorder is
// always on; its last events are dumped when a run fails:
//
//	ehsim -workload counter -strategy hibernus -trace run.json -metrics run.csv
//
// Fault injection (two-phase checkpoint commit under attack):
//
//	ehsim -workload crc -strategy hibernus -fault-schedule random:mean=7000 \
//	      -torn-writes 1e-3 -bitflip-rate 1e-3 -fault-seed 7
//
// Crash-consistency audit sweep (parallel, through the sweep engine):
//
//	ehsim -audit -audit-schedules 10 -workers 4 -run-timeout 30s
//
// SIGINT/SIGTERM cancels a run or sweep; an interrupted audit still
// prints the partial report before exiting non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"reflect"
	"strings"
	"syscall"
	"time"

	"ehmodel/internal/analyze"
	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/faults"
	"ehmodel/internal/obsv"
	"ehmodel/internal/profiling"
	"ehmodel/internal/runner"
	"ehmodel/internal/strategy"
	"ehmodel/internal/textplot"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// strategyFor builds the named runtime and reports the data placement
// its memory model requires. Strategies with a tunable backup period
// are built here; everything else comes from the shared catalog, so the
// CLI runs exactly the configurations the integration tests and the
// crash-consistency auditor cover.
func strategyFor(name string, tauB uint64) (device.Strategy, asm.Segment, error) {
	switch name {
	case "timer":
		return strategy.NewTimer(tauB, 0.1), asm.SRAM, nil
	case "speculative":
		return strategy.NewSpeculative(tauB, 0.1), asm.SRAM, nil
	case "mixvol":
		return strategy.NewMixedVolatility(tauB), asm.SRAM, nil
	case "nvp":
		name = "nvp-everycycle"
	}
	spec, ok := strategy.Lookup(name)
	if !ok {
		return nil, 0, fmt.Errorf("unknown strategy %q", name)
	}
	return spec.New(), spec.Seg, nil
}

func traceFor(name string, seconds float64) (trace.Kind, bool, error) {
	switch name {
	case "", "none":
		return 0, false, nil
	case "spikes":
		return trace.Spikes, true, nil
	case "ramp":
		return trace.Ramp, true, nil
	case "multipeak":
		return trace.MultiPeak, true, nil
	default:
		return 0, false, fmt.Errorf("unknown trace %q", name)
	}
}

// runOpts collects one simulation's configuration.
type runOpts struct {
	workload string
	strategy string
	period   float64
	tauB     uint64
	scale    int
	trace    string
	// plan, when non-nil, attaches a fault injector built from it.
	plan *faults.Plan
	// periodsCSV, when set, receives per-period CSV statistics.
	periodsCSV string
	// runTimeout caps the simulation's wall-clock time (0 = none).
	runTimeout time.Duration
	// wcecCheck runs the static forward-progress verifier before the
	// simulation and refuses statically-infeasible configurations.
	wcecCheck bool
}

// flightRecorderDepth bounds the always-on ring of recent lifecycle
// events dumped when a run fails.
const flightRecorderDepth = 512

func main() {
	os.Exit(cliMain())
}

func cliMain() int {
	wname := flag.String("workload", "counter", "workload: "+strings.Join(workload.Names(), ", "))
	sname := flag.String("strategy", "timer", "runtime: timer, speculative, hibernus, mementos, dino, chain, alpaca, mixvol, clank, ratchet, nvp, nvp-threshold, cachevol (alpaca-naive runs the known-bad audit target)")
	period := flag.Float64("period", 20000, "per-period energy budget in ALU cycles")
	tauB := flag.Uint64("tauB", 1000, "backup period for timer/mixvol (cycles)")
	scale := flag.Int("scale", 1, "workload problem-size multiplier")
	supplyName := flag.String("supply", "none", "supply trace: none (bench supply), spikes, ramp, multipeak")
	list := flag.Bool("list", false, "print the workload's disassembly and exit")
	periodsCSV := flag.String("periods", "", "write per-period statistics to this CSV file")
	workers := flag.Int("workers", 0, "parallel sweep workers for -audit (0 = GOMAXPROCS)")
	runTimeout := flag.Duration("run-timeout", 0, "wall-clock deadline per simulation run (0 = none)")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON timeline to this file (chrome://tracing, Perfetto)")
	metricsFile := flag.String("metrics", "", "write aggregated run metrics to this file (CSV, or JSON with a .json suffix)")
	var prof profiling.Flags
	prof.Register()

	faultSchedule := flag.String("fault-schedule", "none", "power-cut schedule: none, cycles:N,N,..., random:mean=N")
	faultSeed := flag.Int64("fault-seed", 1, "seed for every randomized fault decision")
	tornWrites := flag.Float64("torn-writes", 0, "per-word probability of tearing a checkpoint write")
	bitflipRate := flag.Float64("bitflip-rate", 0, "per-stored-word probability of a bit flip at each restore")
	staleProb := flag.Float64("stale-prob", 0, "per-restore probability of forcing the stale checkpoint slot")
	naive := flag.Bool("naive-commit", false, "downgrade to the broken single-slot commit (fault-model validation)")

	audit := flag.Bool("audit", false, "run the crash-consistency audit sweep (strategy × workload × schedules) instead of a single simulation")
	auditSchedules := flag.Int("audit-schedules", 10, "failure schedules per strategy × workload cell in -audit mode")
	auditStrategies := flag.String("audit-strategies", "", "comma-separated strategy names for -audit/-adversarial (default: full catalog)")
	auditWorkloads := flag.String("audit-workloads", "", "comma-separated workload names for -audit/-adversarial (default: counter,ds,crc,qsort)")
	oracle := flag.Bool("oracle", false, "attach the observation recorder and apply the formal correctness oracle (replayed inputs, stale outputs, timeliness)")
	freshness := flag.Uint64("freshness-bound", 0, "timeliness obligation in executed cycles for the oracle (0 = unbounded)")
	repro := flag.String("repro", "", "replay one printed counterexample case verbatim (use with -audit), e.g. 'timer/sense seed=1 cuts=5000 stale=1 oracle'")
	adversarial := flag.Bool("adversarial", false, "run the adversarial fault-search campaign (frontier-biased cuts, coverage tracking, shrunk counterexamples) instead of the random sweep")
	campaignBudget := flag.Int("campaign-budget", 64, "attack schedules per strategy × workload cell in -adversarial mode")
	counterexamples := flag.String("counterexamples", "", "write minimized, replayable counterexample cases to this file when -adversarial finds violations")
	engineName := flag.String("engine", "batched", "execution engine: batched (event-horizon) or reference (per-instruction); results are byte-identical")
	wcecCheck := flag.Bool("wcec-check", false, "run the static WCEC forward-progress verifier before simulating and refuse statically-infeasible configurations (see ehlint -wcec)")
	flag.Parse()

	engine, err := device.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ehsim:", err)
		return 2
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ehsim:", err)
		return 2
	}
	// finish flushes the profiles on every exit path (os.Exit skips
	// defers, so main routes all returns through here).
	finish := func(code int) int {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "ehsim:", err)
			if code == 0 {
				code = 1
			}
		}
		return code
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	plan := faults.Plan{
		Seed:             *faultSeed,
		TornWriteProb:    *tornWrites,
		BitFlipRate:      *bitflipRate,
		StaleRestoreProb: *staleProb,
		NaiveCommit:      *naive,
	}
	if err := plan.ParseSchedule(*faultSchedule); err != nil {
		fmt.Fprintln(os.Stderr, "ehsim:", err)
		return finish(1)
	}

	// Every mode's devices take their engine and the -trace/-metrics
	// sinks from the context: the audit family builds them many layers
	// down (faults.runCase), the single run in run.
	auditing := *repro != "" || *adversarial || *audit
	var strats []strategy.Spec
	if auditing && *repro == "" {
		if strats, err = specsFor(*auditStrategies); err != nil {
			fmt.Fprintln(os.Stderr, "ehsim:", err)
			return finish(1)
		}
	}
	if *list && !auditing {
		if err := listProgram(*wname, *sname, *tauB, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "ehsim:", err)
			return finish(1)
		}
		return finish(0)
	}
	sinks, err := profiling.OpenSinks(*traceFile, *metricsFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ehsim:", err)
		return finish(1)
	}
	ctx = sinks.WithEnv(ctx, engine)
	var n int
	var annotate func(*obsv.Metrics)
	switch {
	case *repro != "":
		n, err = runRepro(ctx, *repro, *oracle, *freshness, *runTimeout)
	case *adversarial:
		n, err = runAdversarial(ctx, adversarialOpts{
			strategies: strats,
			workloads:  splitList(*auditWorkloads),
			plan:       plan,
			budget:     *campaignBudget,
			seed:       *faultSeed,
			oracle:     *oracle,
			freshness:  *freshness,
			outFile:    *counterexamples,
		})
	case *audit:
		o := faults.Options{
			Strategies:     strats,
			Workloads:      splitList(*auditWorkloads),
			Schedules:      *auditSchedules,
			BaseSeed:       *faultSeed,
			Oracle:         *oracle,
			FreshnessBound: *freshness,
			Run:            runner.Options{Workers: *workers, RunTimeout: *runTimeout},
		}
		if *naive {
			p := faults.DefaultPlan()
			p.NaiveCommit = true
			o.Plan = p
		}
		n, annotate, err = runAudit(ctx, o)
	default:
		opts := runOpts{
			workload: *wname, strategy: *sname,
			period: *period, tauB: *tauB, scale: *scale,
			trace: *supplyName, periodsCSV: *periodsCSV,
			runTimeout: *runTimeout,
			wcecCheck:  *wcecCheck,
		}
		if !reflect.DeepEqual(plan, faults.Plan{Seed: *faultSeed}) {
			opts.plan = &plan
		}
		err = run(ctx, opts)
	}
	if cerr := sinks.Close(annotate); err == nil {
		err = cerr
	}
	// Operational errors exit 1, correctness violations exit 3,
	// clean runs exit 0.
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "ehsim:", err)
		return finish(1)
	case n > 0:
		fmt.Fprintf(os.Stderr, "ehsim: %d correctness violation(s)\n", n)
		return finish(3)
	}
	return finish(0)
}

// specsFor resolves a comma-separated strategy list against the shared
// catalog; empty input means nil (the callee's default).
func specsFor(names string) ([]strategy.Spec, error) {
	var out []strategy.Spec
	for _, n := range splitList(names) {
		spec, ok := strategy.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("unknown strategy %q", n)
		}
		out = append(out, spec)
	}
	return out, nil
}

// splitList parses a comma-separated flag value; empty means nil.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// faultTable renders the fault-injection counters of one run or of a
// whole audit.
func faultTable(f device.FaultReport) string {
	return textplot.Table(
		[]string{"fault", "count"},
		[][]string{
			{"scheduled power cuts", fmt.Sprint(f.PowerCuts)},
			{"injected tears", fmt.Sprint(f.InjectedTears)},
			{"torn backups (all causes)", fmt.Sprint(f.TornBackups)},
			{"bit flips in stored state", fmt.Sprint(f.BitFlips)},
			{"CRC-rejected checkpoints", fmt.Sprint(f.CRCRejections)},
			{"stale-slot restores", fmt.Sprint(f.StaleRestores)},
			{"forced stale restores", fmt.Sprint(f.ForcedStale)},
			{"cold restarts", fmt.Sprint(f.ColdRestarts)},
		})
}

// runAudit executes the parallel crash-consistency audit and prints its
// report: summary tables for humans, then one logfmt verdict line per
// schedule for machines, then a one-line summary per verdict class. It
// returns the violation count (the caller maps it to exit code 3), an
// annotation adding the verdicts and the sweep engine's per-class
// failure counts to the metrics export, and any operational error. An
// interrupted or partially failed sweep still prints what completed
// before returning the error.
func runAudit(ctx context.Context, o faults.Options) (int, func(*obsv.Metrics), error) {
	rep, err := faults.Audit(ctx, o)
	if rep == nil {
		return 0, nil, err
	}
	fmt.Printf("crash-consistency audit: %d run(s)\n\n", rep.Runs)
	fmt.Print(faultTable(rep.Faults))
	fmt.Printf("\ndetected-unrecoverable fail-stops: %d (honest detections, not violations)\n", rep.Unrecoverable)

	// Per-schedule verdicts, one machine-parseable logfmt line each —
	// grep for `outcome=violation` or parse with any logfmt reader.
	fmt.Println()
	lg := obsv.NewLogger(os.Stdout)
	for _, v := range rep.Verdicts {
		fields := []obsv.Field{
			{K: "case", V: v.Case.Strategy + "/" + v.Case.Workload},
			{K: "seed", V: v.Case.Seed},
			{K: "outcome", V: v.Outcome},
		}
		for _, class := range v.Classes {
			fields = append(fields, obsv.Field{K: "class", V: class})
		}
		lg.Line("audit.verdict", fields...)
	}
	for _, v := range rep.Violations {
		fields := []obsv.Field{
			{K: "class", V: v.Class},
			{K: "repro", V: v.Case.String()},
		}
		switch {
		case v.Err != nil:
			fields = append(fields, obsv.Field{K: "err", V: v.Err})
		case v.Incomplete:
			fields = append(fields, obsv.Field{K: "incomplete", V: true})
		case v.Detail != "":
			fields = append(fields, obsv.Field{K: "detail", V: v.Detail})
		default:
			fields = append(fields,
				obsv.Field{K: "got", V: fmt.Sprint(v.Got)},
				obsv.Field{K: "want", V: fmt.Sprint(v.Want)})
		}
		lg.Line("audit.violation", fields...)
	}
	fmt.Println()
	if len(rep.Violations) == 0 {
		fmt.Println("no crash-consistency violations ✓")
	} else {
		// One-line summary per verdict class, for humans and CI logs.
		for class := obsv.VerdictClass(0); class < obsv.NumVerdictClasses; class++ {
			if n := rep.Classes[class]; n > 0 {
				fmt.Printf("%s: %d violation(s)\n", class, n)
			}
		}
	}

	var rerrs runner.Errors
	if errors.As(err, &rerrs) {
		fmt.Printf("\n%s\n", rerrs.Summary(rep.Runs+len(rerrs)))
	}
	annotate := func(m *obsv.Metrics) {
		for _, v := range rep.Violations {
			m.Event(obsv.Event{Type: obsv.EvVerdict, Arg: uint64(v.Class)})
		}
		for class, n := range rerrs.ClassCounts() {
			m.AddErrorClass(class, n)
		}
	}
	if err != nil {
		return 0, annotate, err
	}
	return len(rep.Violations), annotate, nil
}

// runRepro replays one printed counterexample case verbatim and reports
// its verdict — the `-audit -repro "<case>"` workflow. The -oracle and
// -freshness-bound flags layer on top of what the case string embeds.
func runRepro(ctx context.Context, caseStr string, oracle bool, freshness uint64, runTimeout time.Duration) (int, error) {
	c, err := faults.ParseCase(caseStr)
	if err != nil {
		return 0, err
	}
	if oracle {
		c.Oracle = true
	}
	if freshness > 0 {
		c.Fresh = freshness
	}
	out, err := faults.ReplayCase(ctx, c, runner.Options{RunTimeout: runTimeout})
	if err != nil {
		return 0, err
	}
	fmt.Printf("repro %s\n", out.Case)
	switch {
	case out.Unrecoverable:
		fmt.Println("outcome: fail-stop (detected-unrecoverable; honest detection, not a violation)")
	case len(out.Violations) == 0:
		fmt.Println("outcome: ok — committed output matched the continuous oracle")
	default:
		fmt.Println("outcome: violation")
		for _, v := range out.Violations {
			fmt.Printf("  %s\n", v)
		}
	}
	return len(out.Violations), nil
}

// adversarialOpts collects the -adversarial run's configuration.
type adversarialOpts struct {
	strategies []strategy.Spec
	workloads  []string
	plan       faults.Plan
	budget     int
	seed       int64
	oracle     bool
	freshness  uint64
	outFile    string
}

// runAdversarial runs the frontier-biased fault-search campaign over
// every selected strategy × workload cell, prints per-cell coverage and
// finding summaries, and writes minimized counterexamples to the
// -counterexamples file when any violation fired.
func runAdversarial(ctx context.Context, o adversarialOpts) (int, error) {
	if o.strategies == nil {
		o.strategies = strategy.Catalog()
	}
	if o.workloads == nil {
		o.workloads = faults.DefaultWorkloads
	}
	// The campaign owns cut placement; the flag-supplied plan
	// contributes only the stochastic mix and the protocol mode.
	base := o.plan
	base.CutCycles = nil
	base.RandomCutMeanCycles = 0

	var all []faults.Violation
	for _, spec := range o.strategies {
		for _, wl := range o.workloads {
			if ctx.Err() != nil {
				return 0, ctx.Err()
			}
			rep, err := faults.Campaign(ctx, faults.CampaignOptions{
				Strategy:       spec,
				Workload:       wl,
				Plan:           base,
				Budget:         o.budget,
				Seed:           o.seed,
				Oracle:         o.oracle,
				FreshnessBound: o.freshness,
			})
			if err != nil {
				return 0, fmt.Errorf("campaign %s/%s: %w", spec.Name, wl, err)
			}
			line := fmt.Sprintf("campaign %s/%s: %d schedule(s), coverage %d/%d window(s)",
				spec.Name, wl, rep.Schedules, rep.Coverage.Attacked, rep.Coverage.Frontier)
			if rep.Ok() {
				fmt.Printf("%s, clean ✓\n", line)
			} else {
				fmt.Printf("%s, first finding at schedule %d, %d shrink run(s)\n",
					line, rep.FirstFinding, rep.ShrinkRuns)
				for _, v := range rep.Violations {
					fmt.Printf("  %s\n", v)
				}
				all = append(all, rep.Violations...)
			}
		}
	}
	if len(all) > 0 {
		for class := obsv.VerdictClass(0); class < obsv.NumVerdictClasses; class++ {
			n := 0
			for _, v := range all {
				if v.Class == class {
					n++
				}
			}
			if n > 0 {
				fmt.Printf("%s: %d violation(s)\n", class, n)
			}
		}
		if o.outFile != "" {
			if err := writeCounterexamples(o.outFile, all); err != nil {
				return 0, err
			}
		}
	} else {
		fmt.Println("adversarial campaign found no violations ✓")
	}
	return len(all), nil
}

// writeCounterexamples stores the minimized cases one per line, each
// preceded by a comment naming its verdict class — ready for
// `ehsim -audit -repro "$(grep -v '^#' FILE | head -1)"`.
func writeCounterexamples(path string, vs []faults.Violation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, v := range vs {
		detail := v.Detail
		if detail == "" && v.Err != nil {
			detail = v.Err.Error()
		}
		if detail != "" {
			fmt.Fprintf(f, "# [%s] %s\n", v.Class, detail)
		} else {
			fmt.Fprintf(f, "# [%s]\n", v.Class)
		}
		fmt.Fprintln(f, v.Case.String())
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d minimized counterexample(s) to %s\n", len(vs), path)
	return nil
}

// wcecPreflight runs the static forward-progress verifier against the
// exact program, power model and per-period energy budget about to be
// simulated. The region semantics follow the runtime's declared
// commit-point scheme (device.RegionObserver): checkpoint-site
// runtimes are checked over checkpoint-to-checkpoint intervals, the
// task runtime over its static task boundaries. A livelock verdict —
// a region whose *best-case* energy to the next commit already
// exceeds E_max — makes the configuration statically infeasible and
// the run is refused, naming the region; runtimes that place commit
// points dynamically (no RegionObserver) get the verdict as an
// advisory only, since a voltage-triggered checkpoint can commit
// anywhere. Each region's verdict is also emitted into the run's
// observer sinks so -metrics exports the certificate counts.
func wcecPreflight(cfg *device.Config, strat device.Strategy, budgetJ float64) error {
	scheme := device.RegionDynamic
	if ro, ok := strat.(device.RegionObserver); ok {
		scheme = ro.Regions()
	}
	mode := analyze.WCECCheckpoint
	if scheme == device.RegionTaskBoundaries {
		mode = analyze.WCECTask
	}
	tbl, err := analyze.WCEC(cfg.Prog, analyze.WCECOptions{
		Mode: mode, Power: cfg.Power, BudgetJ: budgetJ,
	})
	if err != nil {
		return fmt.Errorf("wcec-check: %w", err)
	}
	if cfg.Observe != nil {
		for _, r := range tbl.Regions {
			code := obsv.WCECArgUnknown
			switch r.Verdict {
			case analyze.WCECCertified:
				code = obsv.WCECArgCertified
			case analyze.WCECLivelock:
				code = obsv.WCECArgLivelock
			}
			cfg.Observe.Event(obsv.Event{Type: obsv.EvWCECRegion, Arg: code, Arg2: uint64(r.Entry)})
		}
	}
	c, l, u := tbl.VerdictCounts()
	fmt.Printf("wcec-check (%s regions): %d certified / %d livelock / %d unknown at E_max = %.3g J\n",
		tbl.Mode, c, l, u, budgetJ)
	fl := tbl.FirstLivelock()
	if fl == nil {
		return nil
	}
	bce := "an unbounded amount of"
	if !fl.BCUnbounded {
		bce = fmt.Sprintf("at least %.3g J of", fl.BCEnergy)
	}
	detail := fmt.Sprintf("region entry=%d (%s) needs %s energy to reach its next commit but E_max is %.3g J",
		fl.Entry, fl.Kind, bce, budgetJ)
	if tbl.RepairComplete && len(tbl.Repair) > 0 {
		detail += fmt.Sprintf("; repair: insert boundaries at pc %v", tbl.Repair)
	}
	if scheme == device.RegionDynamic {
		fmt.Printf("wcec-check: advisory: %s (dynamic commit placement may still progress)\n", detail)
		return nil
	}
	return fmt.Errorf("wcec-check: statically infeasible under %s: %s", strat.Name(), detail)
}

// listProgram prints the disassembly the selected strategy would run.
func listProgram(wname, sname string, tauB uint64, scale int) error {
	w, ok := workload.Get(wname)
	if !ok {
		return fmt.Errorf("unknown workload %q", wname)
	}
	_, seg, err := strategyFor(sname, tauB)
	if err != nil {
		return err
	}
	prog, err := w.Build(workload.Options{Seg: seg, Scale: scale})
	if err != nil {
		return err
	}
	fmt.Print(prog.Listing())
	return nil
}

func run(ctx context.Context, o runOpts) error {
	w, ok := workload.Get(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have: %s)", o.workload, strings.Join(workload.Names(), ", "))
	}
	strat, seg, err := strategyFor(o.strategy, o.tauB)
	if err != nil {
		return err
	}
	wopts := workload.Options{Seg: seg, Scale: o.scale}
	prog, err := w.Build(wopts)
	if err != nil {
		return err
	}

	pm := energy.MSP430Power()
	e := o.period * pm.EnergyPerCycle(energy.ClassALU)
	capC, vmax, von, voff := device.FixedSupplyConfig(e)
	env := device.EnvFrom(ctx)
	cfg := device.Config{
		Prog: prog, Power: pm,
		CapC: capC, CapVMax: vmax, VOn: von, VOff: voff,
		MaxPeriods: 200000, MaxCycles: 1 << 62,
		Engine:     env.Engine,
		RunTimeout: o.runTimeout,
		Interrupt:  runner.Interrupt(ctx),
		// On a fixed supply every charge is identical, so an exactly
		// repeating doomed period proves livelock: fail fast with the
		// region and PC instead of grinding out MaxPeriods.
		DetectLivelock: true,
	}
	kind, hasTrace, err := traceFor(o.trace, 10)
	if err != nil {
		return err
	}
	if hasTrace {
		tr := trace.Generate(kind, 10, 1e-3, 42)
		h, err := energy.NewHarvester(tr, 1000, 0.7)
		if err != nil {
			return err
		}
		cfg.Harvester = h
	}
	if o.plan != nil {
		inj, err := faults.New(*o.plan)
		if err != nil {
			return err
		}
		cfg.Faults = inj
	}

	// Observability: a bounded flight recorder is always on (dumped if
	// the run fails) beside the environment's -trace and -metrics sinks.
	ring := obsv.NewRing(flightRecorderDepth)
	cfg.Observe = obsv.Combine(ring, env.Tracer())

	if o.wcecCheck {
		if err := wcecPreflight(&cfg, strat, e); err != nil {
			return err
		}
	}

	d, err := device.New(cfg, strat)
	if err != nil {
		return err
	}
	res, err := d.Run()
	if err != nil {
		// The run died: dump the flight recorder's last events before
		// reporting the failure.
		fmt.Fprintf(os.Stderr, "flight recorder: last %d lifecycle event(s) before the failure:\n", ring.Len())
		ring.DumpText(os.Stderr)
	}
	if errors.Is(err, device.ErrDeadlineExceeded) {
		return fmt.Errorf("run exceeded its -run-timeout of %v: %w", o.runTimeout, err)
	}
	if errors.Is(err, device.ErrUnrecoverable) {
		fmt.Printf("%s under %s (%s data): FAIL-STOP\n\n", o.workload, strat.Name(), seg)
		fmt.Println("the device detected that its nonvolatile state cannot be recovered")
		fmt.Println("crash-consistently and refused to restore — the honest outcome when")
		fmt.Println("injected corruption outruns what checkpoint rollback can undo:")
		fmt.Printf("  %v\n", err)
		return fmt.Errorf("run fail-stopped: %w", err)
	}
	if err != nil {
		return err
	}
	if o.periodsCSV != "" {
		f, err := os.Create(o.periodsCSV)
		if err != nil {
			return err
		}
		if err := res.WritePeriodsCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote per-period statistics to %s\n", o.periodsCSV)
	}

	fmt.Printf("%s under %s (%s data), E = %.3g J/period\n\n", o.workload, strat.Name(), seg, e)
	bd := res.Breakdown()
	total := bd.Supply + bd.Harvested
	pct := func(v float64) string { return fmt.Sprintf("%.4g J  (%.1f%%)", v, 100*v/total) }
	fmt.Print(textplot.Table(
		[]string{"metric", "value"},
		[][]string{
			{"completed", fmt.Sprint(res.Completed)},
			{"active periods", fmt.Sprint(len(res.Periods))},
			{"backups / restores", fmt.Sprintf("%d / %d", res.Backups(), res.Restores())},
			{"measured progress p", fmt.Sprintf("%.4f", res.MeasuredProgress())},
			{"mean τ_B", fmt.Sprintf("%.1f cycles", res.MeanTauB())},
			{"mean τ_D", fmt.Sprintf("%.1f cycles", res.MeanTauD())},
			{"total cycles", fmt.Sprint(res.TotalCycles)},
			{"simulated time", fmt.Sprintf("%.4g s", res.TimeS)},
			{"supply energy", pct(bd.Supply)},
			{"harvested in-period", pct(bd.Harvested)},
			{"progress energy", pct(bd.Progress)},
			{"dead energy", pct(bd.Dead)},
			{"backup energy", pct(bd.Backup)},
			{"restore energy", pct(bd.Restore)},
			{"idle energy", pct(bd.Idle)},
		}))

	if o.plan != nil {
		fmt.Printf("\nfault injection (seed %d):\n", o.plan.Seed)
		fmt.Print(faultTable(res.Faults))
	}

	if res.Completed {
		want := w.Ref(wopts)
		if reflect.DeepEqual(res.Output, want) {
			fmt.Printf("\noutput: %d words, matches the continuous-execution oracle ✓\n", len(res.Output))
		} else {
			fmt.Printf("\noutput MISMATCH:\n got %v\nwant %v\n", res.Output, want)
			return fmt.Errorf("intermittent output diverged from oracle")
		}
	} else {
		fmt.Println("\nrun hit its limits before completing; stats above are steady-state")
	}
	return nil
}
