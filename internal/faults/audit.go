package faults

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/obsv"
	"ehmodel/internal/runner"
	"ehmodel/internal/strategy"
	"ehmodel/internal/workload"
)

// The differential crash-consistency auditor: run strategy × workload
// matrices under randomized failure schedules and assert that the
// committed output of every faulted intermittent run equals the
// continuous-power oracle. Any divergence — wrong output, a simulator
// error raised by restoring corrupt state, or a run that starves — is a
// Violation carrying the exact case that reproduces it. With
// Options.Oracle set, the device additionally records its observation
// sequence and the formal correctness oracle (oracle.go) classifies
// violations the final-output comparison cannot see: replayed inputs,
// stale output re-exposure and input-freshness breaches.
//
// Correctness under attack is fail-stop, not fail-silent: a run either
// commits output identical to the oracle, or detects that its
// nonvolatile state cannot be recovered consistently and aborts with
// device.ErrUnrecoverable (counted in Report.Unrecoverable). The latter
// arises for runtimes that keep mutable data in FRAM (Clank, Ratchet,
// NVP) when corruption or a forced stale restore would roll execution
// back past a commit whose FRAM stores are already permanent — no
// checkpoint protocol can undo those, so detecting the hazard is the
// honest outcome. Silently diverging instead is exactly what the naive
// single-slot mode does, and what the auditor exists to catch.

// Violation is one correctness failure the auditor caught, tagged with
// its verdict class. Its Case is self-contained (the fault plan is
// embedded), so String prints a schedule `ehsim -audit -repro` replays
// verbatim.
type Violation struct {
	Case Case
	// Class is the verdict taxonomy entry; Detail carries the first
	// witnessing instance for the oracle-side classes.
	Class  obsv.VerdictClass
	Detail string
	// Err is non-nil when the run aborted (e.g. the device restored a
	// corrupt checkpoint); otherwise Got/Want may carry the diverging
	// committed output.
	Err       error
	Got, Want []uint32
	// Incomplete marks a run that hit its period/cycle limits without
	// halting (Class is ClassIncomplete).
	Incomplete bool
}

func (v Violation) String() string {
	head := fmt.Sprintf("[%s] %s", v.Class, v.Case)
	switch {
	case v.Err != nil:
		return fmt.Sprintf("%s: %v", head, v.Err)
	case v.Incomplete:
		return fmt.Sprintf("%s: run did not complete", head)
	case v.Detail != "":
		return fmt.Sprintf("%s: %s", head, v.Detail)
	default:
		return fmt.Sprintf("%s: committed output diverged from oracle\n got %v\nwant %v", head, v.Got, v.Want)
	}
}

// Options configures an audit sweep.
type Options struct {
	// Strategies to audit; nil means the full strategy catalog.
	Strategies []strategy.Spec
	// Workloads to audit by name; nil means the default set
	// {counter, ds, crc, qsort}.
	Workloads []string
	// Schedules is the number of seeded failure schedules per
	// strategy × workload cell (default 8).
	Schedules int
	// BaseSeed derives each cell's schedule seeds; equal base seeds
	// reproduce the whole sweep.
	BaseSeed int64
	// Plan is the fault mix template. Its Seed field is overwritten per
	// schedule. A zero plan gets a default attack: random supply cuts,
	// torn writes, bit flips and forced stale restores all enabled.
	Plan Plan
	// Oracle attaches the observation recorder to every run and applies
	// the formal correctness classification (oracle.go) on top of the
	// final-output comparison.
	Oracle bool
	// FreshnessBound is the timeliness obligation in executed cycles: a
	// committed input older than this at its commit is a violation.
	// Zero disables the check. Only meaningful with Oracle.
	FreshnessBound uint64
}

// The run shape of every audited and campaign run unless its Case
// overrides it: the per-period energy budget in ALU cycles (matching
// the strategy integration tests) and the bound on power-on periods.
const (
	defaultPeriodCycles = 20000
	defaultMaxPeriods   = 20000
)

// DefaultWorkloads is the audit's standard workload set: a WAR-free
// counter, a pointer-chasing data structure, a table-driven CRC and a
// recursive sort — four distinct store/restore behaviour classes.
var DefaultWorkloads = []string{"counter", "ds", "crc", "qsort"}

// DefaultPlan is the standard attack mix: seeded-random supply cuts at a
// mean interval well under a period, torn checkpoint writes, bit flips
// in stored checkpoints and occasional forced stale restores. Tear and
// flip rates are per word, so exposure scales with checkpoint image
// size; at ~40-word footprint images the rates land a tear every few
// hundred backups and roughly one flip per run — enough to exercise CRC
// rejection, slot fallback, fail-stop detection and cold restarts
// across a sweep without starving high-frequency checkpointers.
func DefaultPlan() Plan {
	return Plan{
		RandomCutMeanCycles: 7000,
		TornWriteProb:       1e-3,
		BitFlipRate:         1e-3,
		StaleRestoreProb:    0.05,
	}
}

// CaseVerdict is one audited schedule's outcome, for the machine-
// parseable per-schedule audit log: "ok" (output matched the oracle),
// "violation" (crash consistency broke), or "unrecoverable" (honest
// fail-stop — the device detected that no consistent recovery existed).
// Classes lists the verdict classes of a violation outcome.
type CaseVerdict struct {
	Case    Case
	Outcome string
	Classes []obsv.VerdictClass
}

// Report aggregates an audit sweep.
type Report struct {
	Runs       int
	Violations []Violation
	// Verdicts lists every completed schedule's outcome in input order
	// (dropped cells — deadline, panic, cancellation — are absent; they
	// appear in the runner's error summary instead).
	Verdicts []CaseVerdict
	// Classes counts reported violations per verdict class.
	Classes [obsv.NumVerdictClasses]int
	// Unrecoverable counts runs that fail-stopped with
	// device.ErrUnrecoverable: the device detected that no
	// crash-consistent recovery existed. These are successful
	// detections, not violations.
	Unrecoverable int
	// Faults sums the per-run fault reports — evidence the attack
	// surface was actually exercised.
	Faults device.FaultReport
}

// Ok reports whether every audited run matched the oracle.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

func (o *Options) setDefaults() {
	if o.Strategies == nil {
		o.Strategies = strategy.Catalog()
	}
	if o.Workloads == nil {
		o.Workloads = DefaultWorkloads
	}
	if o.Schedules == 0 {
		o.Schedules = 8
	}
	if reflect.DeepEqual(o.Plan, Plan{}) {
		o.Plan = DefaultPlan()
	}
}

// caseSeed derives a per-cell, per-schedule seed from the base seed.
// splitmix-style mixing keeps neighbouring cells decorrelated while
// staying reproducible.
func caseSeed(base int64, strat, wl string, k int) int64 {
	h := uint64(base)*0x9e3779b97f4a7c15 + uint64(k+1)
	for _, s := range []string{strat, wl} {
		for _, c := range s {
			h = (h ^ uint64(c)) * 0x100000001b3
		}
	}
	h ^= h >> 33
	return int64(h & 0x7fffffffffffffff)
}

// Audit runs the sweep through the parallel sweep engine, in the slots
// of the context's worker pool, and returns the report. The report is
// assembled in input order, so it is identical at any worker count.
// Setup errors (unknown workload, bad plan, a benchmark
// that fails to build) abort with an error before any schedule runs;
// crash-consistency failures are collected as violations instead. Runs
// that the engine drops (cancellation, per-run deadline, panic) are
// excluded from the report, which is returned partially populated
// alongside the runner errors.
func Audit(ctx context.Context, o Options) (*Report, error) {
	o.setDefaults()
	if err := o.Plan.Validate(); err != nil {
		return nil, err
	}
	type cell struct {
		spec strategy.Spec
		prog *asm.Program
		want []uint32
		c    Case
	}
	var cells []cell
	for _, spec := range o.Strategies {
		for _, wname := range o.Workloads {
			w, ok := workload.Get(wname)
			if !ok {
				return nil, fmt.Errorf("faults: unknown workload %q", wname)
			}
			opts := workload.Options{Seg: spec.Seg}
			prog, err := w.Build(opts)
			if err != nil {
				return nil, fmt.Errorf("faults: building %s for %s: %w", wname, spec.Name, err)
			}
			want := w.Ref(opts)
			for k := 0; k < o.Schedules; k++ {
				c := Case{Strategy: spec.Name, Workload: wname, Seed: caseSeed(o.BaseSeed, spec.Name, wname, k)}
				cells = append(cells, cell{spec: spec, prog: prog, want: want, c: c})
			}
		}
	}
	ro := runner.Options{Label: func(i int) string { return "audit " + cells[i].c.String() }}
	results, errs := runner.Map(ctx, len(cells), ro, func(i int) (*RunOutcome, error) {
		cl := cells[i]
		return AuditRun(ctx, o, cl.spec.New(), cl.prog, cl.want, cl.c)
	})
	failed := errs.FailedSet()

	rep := &Report{}
	for i := range cells {
		if failed[i] {
			continue
		}
		r := results[i]
		rep.Runs++
		accumulate(&rep.Faults, r.Faults)
		outcome := "ok"
		if r.Unrecoverable {
			rep.Unrecoverable++
			outcome = "unrecoverable"
		}
		var classes []obsv.VerdictClass
		if len(r.Violations) > 0 {
			outcome = "violation"
			for _, v := range r.Violations {
				rep.Violations = append(rep.Violations, v)
				rep.Classes[v.Class]++
				classes = append(classes, v.Class)
			}
		}
		rep.Verdicts = append(rep.Verdicts, CaseVerdict{Case: cells[i].c, Outcome: outcome, Classes: classes})
	}
	if len(errs) > 0 {
		return rep, errs
	}
	return rep, nil
}

// RunOutcome is one audited schedule's full result: the (enriched,
// replayable) case, every violation found with its verdict class, the
// fail-stop flag, the exercised-fault evidence, and — in oracle mode —
// the raw observation log for callers that classify further.
type RunOutcome struct {
	Case       Case
	Violations []Violation
	// Unrecoverable marks an honest fail-stop: the device detected that
	// no crash-consistent recovery existed. A successful detection, not
	// a violation.
	Unrecoverable bool
	Completed     bool
	Output        []uint32
	Faults        device.FaultReport
	// Log is the observation record of the run (oracle mode only).
	Log *device.ObsLog
}

// Classes returns the distinct verdict classes among the violations.
func (r *RunOutcome) Classes() []obsv.VerdictClass {
	out := make([]obsv.VerdictClass, 0, len(r.Violations))
	for _, v := range r.Violations {
		out = append(out, v.Class)
	}
	return out
}

// HasClass reports whether some violation carries the class.
func (r *RunOutcome) HasClass(class obsv.VerdictClass) bool {
	for _, v := range r.Violations {
		if v.Class == class {
			return true
		}
	}
	return false
}

// AuditRun runs one faulted schedule of prog under a caller-supplied
// strategy instance and checks it against the continuous oracle's
// output want. It is the single-cell core of Audit, exported so callers
// that need to inspect strategy-side state after the run (e.g. Clank's
// violation words in the analyzer's cross-validation) can hold on to
// strat. Zero fields of o pick the same defaults as Audit. A bare case
// runs o.Plan reseeded with c.Seed; a self-contained case (embedded
// plan fields, e.g. one produced by ParseCase or the campaign shrinker)
// overrides the plan and the oracle options entirely. The case's run
// shape (period budget and period bound) defaults to the audit's.
func AuditRun(ctx context.Context, o Options, strat device.Strategy, prog *asm.Program, want []uint32, c Case) (*RunOutcome, error) {
	o.setDefaults()
	plan := o.Plan
	if c.hasPlan() {
		plan = c.plan()
	} else {
		plan.Seed = c.Seed
	}
	if c.Oracle {
		o.Oracle = true
	}
	if c.Fresh > 0 {
		o.FreshnessBound = c.Fresh
	}
	if c.Period == 0 {
		c.Period = defaultPeriodCycles
	}
	if c.Periods == 0 {
		c.Periods = defaultMaxPeriods
	}
	var rec *device.ObsLog
	if o.Oracle {
		rec = &device.ObsLog{}
	}
	res, err := runCase(ctx, c.Period, c.Periods, strat, prog, plan, rec, nil)
	out := &RunOutcome{Case: enrich(c, &o, plan), Log: rec}
	switch {
	case errors.Is(err, device.ErrUnrecoverable):
		// Honest fail-stop: the device detected unrecoverable NVM state
		// instead of silently diverging.
		out.Unrecoverable = true
		return out, nil
	case errors.Is(err, device.ErrDeadlineExceeded) || ctx.Err() != nil:
		// Resource exhaustion, not a consistency verdict: let the sweep
		// engine record this cell as dropped rather than misreporting it
		// as a violation.
		return nil, err
	case err != nil:
		out.Violations = append(out.Violations,
			Violation{Case: out.Case, Class: obsv.ClassTornState, Err: err})
		return out, nil
	}
	out.Completed = res.Completed
	out.Output = res.Output
	out.Faults = res.Faults
	if !res.Completed {
		out.Violations = append(out.Violations,
			Violation{Case: out.Case, Class: obsv.ClassIncomplete, Incomplete: true})
	} else if !reflect.DeepEqual(res.Output, want) {
		out.Violations = append(out.Violations,
			Violation{Case: out.Case, Class: obsv.ClassTornState, Got: res.Output, Want: want})
	}
	if rec != nil {
		claimed := false
		if ip, ok := strat.(device.InputProtector); ok {
			claimed = ip.InputsProtected()
		}
		for _, v := range classify(rec, want, o.FreshnessBound, claimed, out.Case) {
			if !out.HasClass(v.Class) {
				out.Violations = append(out.Violations, v)
			}
		}
	}
	return out, nil
}

// enrich returns c as a self-contained case: the exact plan that ran
// plus the oracle settings needed to replay it verbatim.
func enrich(c Case, o *Options, plan Plan) Case {
	c = c.withPlan(plan)
	c.Oracle = o.Oracle
	c.Fresh = o.FreshnessBound
	return c
}

// runCase executes one faulted device run: injector from plan, fixed
// supply sized for periodCycles, at most maxPeriods power-on periods,
// optional observation recorder and tracer, and the engine, deadline
// and a tracer of the context's device.Env. It is shared by the sweep
// auditor and the adversarial campaign so a shrunk counterexample
// replays in exactly the environment that found it.
func runCase(ctx context.Context, periodCycles float64, maxPeriods int, strat device.Strategy, prog *asm.Program, plan Plan, rec *device.ObsLog, obs obsv.Tracer) (*device.Result, error) {
	env := device.EnvFrom(ctx)
	inj, err := New(plan)
	if err != nil {
		return nil, err
	}
	pm := energy.MSP430Power()
	e := periodCycles * pm.EnergyPerCycle(energy.ClassALU)
	capC, vmax, von, voff := device.FixedSupplyConfig(e)
	cfg := device.Config{
		Prog: prog, Power: pm,
		CapC: capC, CapVMax: vmax, VOn: von, VOff: voff,
		MaxPeriods: maxPeriods, MaxCycles: 2_000_000_000,
		Engine:     env.Engine,
		Faults:     inj,
		Record:     rec,
		Observe:    obsv.Combine(obs, env.Tracer()),
		RunTimeout: env.RunTimeout,
		Interrupt:  runner.Interrupt(ctx),
	}
	d, err := device.New(cfg, strat)
	if err != nil {
		return nil, fmt.Errorf("faults: configuring %s/%s: %w", strat.Name(), prog.Name, err)
	}
	return d.Run()
}

// ReplayCase rebuilds and re-runs one self-contained case — the
// `ehsim -audit -repro` path. The strategy is resolved from the catalog
// (a "+sense" suffix wraps it in the SenseCommit input-freshness
// protocol) and the workload's continuous reference is recomputed, so
// the outcome depends on nothing but the case string (and the context's
// device.Env, which picks the engine, deadline and observers).
func ReplayCase(ctx context.Context, c Case) (*RunOutcome, error) {
	name := c.Strategy
	wrap := false
	if base, ok := strings.CutSuffix(name, "+sense"); ok {
		name, wrap = base, true
	}
	spec, ok := strategy.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("faults: unknown strategy %q", c.Strategy)
	}
	w, ok := workload.Get(c.Workload)
	if !ok {
		return nil, fmt.Errorf("faults: unknown workload %q", c.Workload)
	}
	opts := workload.Options{Seg: spec.Seg}
	prog, err := w.Build(opts)
	if err != nil {
		return nil, fmt.Errorf("faults: building %s: %w", c.Workload, err)
	}
	strat := spec.New()
	if wrap {
		strat = strategy.NewSenseCommit(strat)
	}
	var o Options
	if !c.hasPlan() {
		// A bare case replays under the default sweep attack, matching
		// how Audit would have run it.
		o.Plan = DefaultPlan()
	}
	return AuditRun(ctx, o, strat, prog, w.Ref(opts), c)
}

func accumulate(total *device.FaultReport, r device.FaultReport) {
	total.PowerCuts += r.PowerCuts
	total.InjectedTears += r.InjectedTears
	total.TornBackups += r.TornBackups
	total.BitFlips += r.BitFlips
	total.CRCRejections += r.CRCRejections
	total.StaleRestores += r.StaleRestores
	total.ForcedStale += r.ForcedStale
	total.ColdRestarts += r.ColdRestarts
}
