package faults

import (
	"context"
	"fmt"
	"sort"

	"ehmodel/internal/analyze"
	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/obsv"
	"ehmodel/internal/strategy"
	"ehmodel/internal/workload"
)

// campaign.go — the adversarial fault-search engine. Uniform-random
// power-cut placement wastes most of its budget in the long stretches
// where a cut is harmless (the device re-executes from the last commit
// and converges). The interesting cuts cluster at coverage frontiers:
// inside a checkpoint's commit window (tearing the two-phase — or, in
// naive mode, single-slot — write), just after a commit (maximal
// rollback with fresh nonvolatile state behind it), between an input
// observation and the commit that would persist it, right after a
// store to a statically identified WAR-hazard word, and around
// tracking-buffer-full flushes. A Campaign mines those windows from an
// instrumented probe run, then spends its schedule budget round-robin
// across them with seeded jitter, tracks which windows were actually
// attacked (schedule-space coverage), and delta-debugs every violation
// down to a minimal, deterministically replayable Case.

// CampaignOptions configures one adversarial campaign against a single
// strategy × workload cell.
type CampaignOptions struct {
	// Strategy under attack. Required.
	Strategy strategy.Spec
	// Workload name. Required.
	Workload string
	// Plan is the base attack mix applied to every schedule (cut fields
	// are overwritten per schedule). The zero plan means cuts only —
	// the pure schedule-search setting. NaiveCommit is honored.
	Plan Plan
	// Budget is the maximum number of attack schedules (default 64).
	// The campaign stops early after the first schedule that yields a
	// minimized counterexample.
	Budget int
	// Seed drives the jitter of cut placement inside windows.
	Seed int64
	// Oracle attaches the observation recorder to every attack run and
	// classifies with the formal oracle; without it only final-output
	// divergence, run errors and starvation are detected.
	Oracle bool
	// FreshnessBound is the oracle's timeliness obligation in executed
	// cycles (0 = unbounded). Every run has the audit's default shape:
	// 20000-cycle supply periods, at most 20000 of them.
	FreshnessBound uint64
}

// Window is one coverage-frontier interval of consumed-cycle positions
// a power cut should land in.
type Window struct {
	// Kind is "commit", "post-commit", "sense-commit", "hazard-store",
	// "buffer-full", "task-commit" (a task runtime's privatization-
	// buffer flush exposure) or "reexec-prefix" (the re-executed span
	// right after a non-cold reboot).
	Kind string
	Lo   uint64
	Hi   uint64 // inclusive
}

// Coverage summarizes the schedule-space coverage of a campaign.
type Coverage struct {
	// Frontier is the number of windows mined from the probe run;
	// Attacked how many received at least one scheduled cut.
	Frontier int
	Attacked int
}

// CampaignReport is the outcome of one adversarial campaign.
type CampaignReport struct {
	Strategy string
	Workload string
	// ProbeCycles is the fault-free probe run's total consumed cycles;
	// ProbeCommits its checkpoint count — the searched space.
	ProbeCycles  uint64
	ProbeCommits int
	// Windows are the mined coverage frontiers.
	Windows []Window
	// Schedules is the number of attack schedules actually launched;
	// FirstFinding the 1-based ordinal of the first violating schedule
	// (0 when none violated) — the search-efficiency measure.
	Schedules    int
	FirstFinding int
	Coverage     Coverage
	// Violations are the minimized counterexamples, at most one per
	// verdict class, each with a self-contained replayable Case.
	Violations []Violation
	// ShrinkRuns counts the candidate runs the minimizer spent.
	ShrinkRuns int
}

// Ok reports whether the campaign found no violation.
func (r *CampaignReport) Ok() bool { return len(r.Violations) == 0 }

func (o *CampaignOptions) setDefaults() {
	if o.Budget == 0 {
		o.Budget = 64
	}
}

// splitmix is the jitter generator for cut placement: deterministic,
// stateless, decorrelated across (seed, window, attempt).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// tap collects the probe-run events frontier mining needs (buffer-full
// flush and task-commit positions).
type tap struct {
	bufferFull  []uint64
	taskCommits []uint64
}

func (t *tap) Event(e obsv.Event) {
	switch {
	case e.Type == obsv.EvTrigger && obsv.TriggerReason(e.Arg) == obsv.TrigBufferFull,
		e.Type == obsv.EvWARFlush && obsv.TriggerReason(e.Arg2) == obsv.TrigBufferFull:
		t.bufferFull = append(t.bufferFull, e.Cycles)
	case e.Type == obsv.EvTaskCommit:
		t.taskCommits = append(t.taskCommits, e.Cycles)
	}
}

// Campaign runs one adversarial fault-search campaign and returns its
// report. Runs are sequential (the search is adaptive in principle and
// each run is short); cancel ctx to stop early — the report covers the
// schedules completed so far. The context's device.Env observes the
// campaign: its provider's first tracer takes the progress events
// (EvCampaign*), and every probe, attack and shrink run gets a tracer
// of its own, as every audited run does.
func Campaign(ctx context.Context, o CampaignOptions) (*CampaignReport, error) {
	o.setDefaults()
	if o.Strategy.New == nil {
		return nil, fmt.Errorf("faults: campaign needs a strategy")
	}
	w, ok := workload.Get(o.Workload)
	if !ok {
		return nil, fmt.Errorf("faults: unknown workload %q", o.Workload)
	}
	wopts := workload.Options{Seg: o.Strategy.Seg}
	prog, err := w.Build(wopts)
	if err != nil {
		return nil, fmt.Errorf("faults: building %s: %w", o.Workload, err)
	}
	want := w.Ref(wopts)

	progress := device.EnvFrom(ctx).Tracer()
	emit := func(t obsv.EventType, arg, arg2 uint64) {
		if progress != nil {
			progress.Event(obsv.Event{Type: t, Arg: arg, Arg2: arg2})
		}
	}

	ro := Options{
		Oracle:         o.Oracle,
		FreshnessBound: o.FreshnessBound,
		Plan:           DefaultPlan(), // non-zero so setDefaults leaves it alone; never used as a schedule
	}

	rep := &CampaignReport{Strategy: o.Strategy.Name, Workload: o.Workload}

	// Probe: one cut-free run with the recorder attached (and the
	// injector present, so backup/restore accounting matches the
	// attacked runs cycle for cycle), mapping commit windows, committed
	// input observations, hazard-word stores and buffer-full flushes.
	probePlan := o.Plan
	probePlan.CutCycles = nil
	probePlan.RandomCutMeanCycles = 0
	probePlan.TornWriteProb = 0
	probePlan.BitFlipRate = 0
	probePlan.StaleRestoreProb = 0
	probePlan.Seed = o.Seed
	rec := &device.ObsLog{}
	if hints, aerr := analyze.Analyze(prog); aerr == nil {
		if words := hints.HazardWords(); len(words) > 0 {
			rec.HazardWords = make(map[uint32]struct{}, len(words))
			for _, a := range words {
				rec.HazardWords[a] = struct{}{}
			}
		}
	}
	probeTap := &tap{}
	res, err := runCase(ctx, defaultPeriodCycles, defaultMaxPeriods, o.Strategy.New(), prog, probePlan, rec, probeTap)
	if err != nil {
		return nil, fmt.Errorf("faults: campaign probe: %w", err)
	}
	if !res.Completed {
		return nil, fmt.Errorf("faults: campaign probe did not complete (%d periods)", len(res.Periods))
	}
	rep.ProbeCycles = res.TotalCycles
	rep.ProbeCommits = len(rec.Commits)
	rep.Windows = mineWindows(rec, probeTap, res.TotalCycles)
	rep.Coverage.Frontier = len(rep.Windows)
	emit(obsv.EvCampaignProbe, uint64(len(rep.Windows)), res.TotalCycles)
	if len(rep.Windows) == 0 {
		emit(obsv.EvCampaignCoverage, 0, 0)
		return rep, nil
	}

	// Attack: round-robin the schedule budget across the frontier
	// windows with seeded jitter, so every window is hit before any is
	// hit twice and repeated visits land on fresh offsets.
	attacked := make([]bool, len(rep.Windows))
	classes := make(map[obsv.VerdictClass]bool)
	for k := 0; k < o.Budget; k++ {
		if ctx.Err() != nil {
			break
		}
		wi := k % len(rep.Windows)
		win := rep.Windows[wi]
		span := win.Hi - win.Lo + 1
		cut := win.Lo + splitmix(uint64(o.Seed)^uint64(wi)<<32^uint64(k))%span
		plan := o.Plan
		plan.CutCycles = []uint64{cut}
		plan.Seed = o.Seed
		c := Case{Strategy: o.Strategy.Name, Workload: o.Workload, Plan: plan,
			Oracle: o.Oracle, Fresh: o.FreshnessBound}
		rep.Schedules++
		emit(obsv.EvCampaignSchedule, uint64(wi), cut)
		out, err := AuditRun(ctx, ro, o.Strategy.New(), prog, want, c)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			return rep, fmt.Errorf("faults: campaign schedule %d: %w", k, err)
		}
		attacked[wi] = true
		for _, v := range out.Violations {
			if classes[v.Class] {
				continue
			}
			classes[v.Class] = true
			if rep.FirstFinding == 0 {
				rep.FirstFinding = rep.Schedules
			}
			emit(obsv.EvCampaignFinding, uint64(v.Class), cut)
			min, runs := shrink(ctx, &ro, &o, prog, want, v)
			rep.ShrinkRuns += runs
			emit(obsv.EvCampaignShrink, uint64(runs), uint64(len(min.Case.CutCycles)))
			rep.Violations = append(rep.Violations, min)
		}
		if len(rep.Violations) > 0 {
			break
		}
	}
	for _, a := range attacked {
		if a {
			rep.Coverage.Attacked++
		}
	}
	emit(obsv.EvCampaignCoverage, uint64(rep.Coverage.Attacked), uint64(rep.Coverage.Frontier))
	return rep, nil
}

// mineWindows derives the coverage-frontier windows from a probe run's
// observation log. Windows are clamped to the probe's cycle span and
// deduplicated; order is deterministic (commit windows first, then
// post-commit, sense-commit, hazard-store, buffer-full, task-commit,
// reexec-prefix).
func mineWindows(rec *device.ObsLog, t *tap, total uint64) []Window {
	var out []Window
	add := func(kind string, lo, hi uint64) {
		if hi > total {
			hi = total
		}
		if lo < 1 {
			lo = 1
		}
		if lo > hi {
			return
		}
		out = append(out, Window{Kind: kind, Lo: lo, Hi: hi})
	}
	const after = 64 // cycles of post-event exposure to attack
	for i := range rec.Commits {
		co := &rec.Commits[i]
		// Inside the backup write: tears the in-flight image. The very
		// first commit's tear is usually harmless (the slot was empty,
		// cold start is legal), but it still probes the protocol.
		if co.Cycle > co.Start+1 {
			add("commit", co.Start+1, co.Cycle-1)
		}
		// Right after the commit: maximal rollback distance for the next
		// failure, with fresh nonvolatile state behind it.
		add("post-commit", co.Cycle+1, co.Cycle+after)
		// Between a committed input observation and its commit: forces
		// the observation to be re-executed after the reboot.
		for _, si := range co.Senses {
			s := &rec.Senses[si]
			if co.Cycle > s.Cycle {
				add("sense-commit", s.Cycle, co.Cycle-1)
			}
		}
	}
	for i := range rec.HazardStores {
		hs := &rec.HazardStores[i]
		add("hazard-store", hs.Cycle+1, hs.Cycle+after)
	}
	for _, c := range t.bufferFull {
		lo := uint64(1)
		if c > 32 {
			lo = c - 32
		}
		add("buffer-full", lo, c+32)
	}
	// Task-runtime frontiers, mined only when the probe observed task
	// commits so non-task cells keep their exact legacy window lists:
	// the exposure right after a privatization-buffer flush (the
	// two-phase commit write span plus the fresh task's opening), and
	// the re-executed prefix after each non-cold reboot — the span a
	// task-based runtime must replay idempotently.
	if len(t.taskCommits) > 0 {
		for _, c := range t.taskCommits {
			add("task-commit", c+1, c+after)
		}
		const maxReexec = 16
		reexec := 0
		for i := range rec.Boots {
			b := &rec.Boots[i]
			if b.Cold {
				continue
			}
			add("reexec-prefix", b.Cycle+1, b.Cycle+after)
			if reexec++; reexec >= maxReexec {
				break
			}
		}
	}
	// Deduplicate identical intervals (sense windows inside one commit
	// region often coincide) while preserving first-seen order.
	seen := make(map[Window]int, len(out))
	dedup := out[:0]
	for _, w := range out {
		key := Window{Kind: w.Kind, Lo: w.Lo, Hi: w.Hi}
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = len(dedup)
		dedup = append(dedup, w)
	}
	return dedup
}

// shrink minimizes a violating case delta-debugging-style: first strip
// the stochastic attack mix, then ddmin the cut set, then push the
// first cut as late as it will go — the smallest, latest-failing
// schedule is the most informative counterexample. Every accepted step
// must reproduce a violation of the same class. Returns the minimized
// violation and the number of candidate runs spent.
func shrink(ctx context.Context, ro *Options, o *CampaignOptions, prog *asm.Program, want []uint32, v Violation) (Violation, int) {
	runs := 0
	best := v
	try := func(c Case) (Violation, bool) {
		if ctx.Err() != nil {
			return Violation{}, false
		}
		runs++
		out, err := AuditRun(ctx, *ro, o.Strategy.New(), prog, want, c)
		if err != nil {
			return Violation{}, false
		}
		for _, cand := range out.Violations {
			if cand.Class == v.Class {
				return cand, true
			}
		}
		return Violation{}, false
	}

	// Step 1: drop the stochastic mix — pure deterministic cuts (plus
	// the protocol mode) make the repro independent of RNG draws.
	c := best.Case
	if c.RandomCutMeanCycles > 0 || c.TornWriteProb > 0 || c.BitFlipRate > 0 || c.StaleRestoreProb > 0 {
		cand := c
		cand.RandomCutMeanCycles, cand.TornWriteProb, cand.BitFlipRate, cand.StaleRestoreProb = 0, 0, 0, 0
		if min, ok := try(cand); ok {
			best, c = min, cand
		}
	}

	// Step 2: ddmin over the cut set (complement reduction).
	cuts := append([]uint64(nil), c.CutCycles...)
	n := 2
	for len(cuts) >= 2 && n <= len(cuts) {
		chunk := (len(cuts) + n - 1) / n
		reduced := false
		for i := 0; i < len(cuts); i += chunk {
			complement := append(append([]uint64(nil), cuts[:i]...), cuts[min(i+chunk, len(cuts)):]...)
			cand := c
			cand.CutCycles = complement
			if m, ok := try(cand); ok {
				cuts = complement
				best, c = m, cand
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(cuts) {
				break
			}
			n = min(n*2, len(cuts))
		}
	}

	// Step 3: push the first cut later (doubling probe then binary
	// search), bounded — the latest failing first cut pins the frontier
	// the violation lives on.
	if len(c.CutCycles) > 0 {
		c.CutCycles = cuts
		sort.Slice(c.CutCycles, func(a, b int) bool { return c.CutCycles[a] < c.CutCycles[b] })
		withFirst := func(v uint64) Case {
			cand := c
			cand.CutCycles = append([]uint64(nil), c.CutCycles...)
			cand.CutCycles[0] = v
			return cand
		}
		hi := c.CutCycles[0]
		step := uint64(1)
		for probes := 0; probes < 8; probes++ {
			if m, ok := try(withFirst(hi + step)); ok {
				hi += step
				best = m
				c.CutCycles[0] = hi
				step *= 2
			} else {
				break
			}
		}
		// Binary refine between the last good (hi) and first bad (hi+step).
		badLo, badHi := hi, hi+step
		for probes := 0; probes < 8 && badLo+1 < badHi; probes++ {
			mid := badLo + (badHi-badLo)/2
			if m, ok := try(withFirst(mid)); ok {
				badLo = mid
				best = m
				c.CutCycles[0] = mid
			} else {
				badHi = mid
			}
		}
	}

	// Confirm: the minimized case must reproduce deterministically on a
	// fresh replay before it is reported.
	if m, ok := try(best.Case); ok {
		best = m
	}
	return best, runs
}
