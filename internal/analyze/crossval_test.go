package analyze_test

// Cross-validation of the static analyzer against the dynamic
// simulator — the empirical half of the soundness argument:
//
//  1. every WAR violation a running Clank records lands on a word the
//     analyzer marked hazardous, both under clean intermittent power
//     and under the fault injector's full attack mix;
//  2. sizing Clank's tracking buffers from the analyzer's static
//     footprint bound provably eliminates buffer-overflow checkpoints
//     and keeps replay exact;
//  3. the Eq. 15 circular-buffer plan checked statically is replay-safe
//     when simulated.

import (
	"context"
	"reflect"
	"testing"

	"ehmodel/internal/analyze"
	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/faults"
	"ehmodel/internal/strategy"
	"ehmodel/internal/workload"
)

// fixedCfg mirrors the strategy integration tests: a bench-supply
// device with the given per-period energy in ALU cycles. Periods must
// exceed Clank's 8000-cycle watchdog or workloads forming one unbounded
// idempotent region can livelock.
func fixedCfg(prog *asm.Program, cyclesOfEnergy float64) device.Config {
	pm := energy.MSP430Power()
	e := cyclesOfEnergy * pm.EnergyPerCycle(energy.ClassALU)
	capC, vmax, von, voff := device.FixedSupplyConfig(e)
	return device.Config{
		Prog:       prog,
		Power:      pm,
		CapC:       capC,
		CapVMax:    vmax,
		VOn:        von,
		VOff:       voff,
		MaxPeriods: 20000,
		MaxCycles:  2_000_000_000,
	}
}

// buildFRAM builds a workload with data in FRAM (Clank's required
// placement) and analyzes it.
func buildFRAM(t *testing.T, w workload.Workload) (*asm.Program, []uint32, *analyze.Report) {
	t.Helper()
	opts := workload.Options{Seg: asm.FRAM}
	prog, err := w.Build(opts)
	if err != nil {
		t.Fatalf("building %s: %v", w.Name, err)
	}
	rep, err := analyze.Analyze(prog)
	if err != nil {
		t.Fatalf("analyzing %s: %v", w.Name, err)
	}
	return prog, w.Ref(opts), rep
}

// clankWith returns a default Clank with both tracking buffers resized.
func clankWith(read, write int) *strategy.Clank {
	c := strategy.NewClank()
	c.ReadFirstEntries = read
	c.WriteFirstEntries = write
	c.Reset()
	return c
}

// checkCovered asserts every dynamically violated word is statically
// hazardous, returning the violation count.
func checkCovered(t *testing.T, rep *analyze.Report, c *strategy.Clank) int {
	t.Helper()
	words := c.ViolationWords()
	for _, w := range words {
		if !rep.HazardWord(w) {
			t.Errorf("dynamic WAR violation at %#x not in static hazard set", w)
		}
	}
	return len(words)
}

// TestStaticHazardsCoverClankContinuous runs every workload under Clank
// on intermittent bench power across several tracking-buffer sizes and
// asserts the analyzer's global hazard set covers every violation the
// hardware model records. Small buffers force frequent clears and so
// probe many distinct dynamic checkpoint placements.
func TestStaticHazardsCoverClankContinuous(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation matrix is slow")
	}
	violations := 0
	for _, w := range workload.All() {
		for _, entries := range []int{2, 4, 8} {
			prog, want, rep := buildFRAM(t, w)
			c := clankWith(entries, entries)
			d, err := device.New(fixedCfg(prog, 20000), c)
			if err != nil {
				t.Fatalf("%s/%d: %v", w.Name, entries, err)
			}
			res, err := d.Run()
			if err != nil {
				t.Fatalf("%s/%d: %v", w.Name, entries, err)
			}
			if !res.Completed {
				t.Fatalf("%s/%d: did not complete", w.Name, entries)
			}
			if !reflect.DeepEqual(res.Output, want) {
				t.Fatalf("%s/%d: output diverged\n got %v\nwant %v", w.Name, entries, res.Output, want)
			}
			violations += checkCovered(t, rep, c)
		}
	}
	// The theorem must not hold vacuously: the sweep has to provoke
	// real WAR violations somewhere.
	if violations == 0 {
		t.Fatal("no dynamic WAR violations observed across the whole sweep; coverage check is vacuous")
	}
}

// TestStaticHazardsCoverClankFaulted repeats the coverage check with
// the fault injector's full attack mix (supply cuts, torn writes, bit
// flips, forced stale restores) driving the run through the auditor.
// Power failures at arbitrary points exercise checkpoint placements the
// clean run never sees.
func TestStaticHazardsCoverClankFaulted(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted cross-validation matrix is slow")
	}
	ctx := context.Background()
	violations := 0
	for _, w := range workload.All() {
		prog, want, rep := buildFRAM(t, w)
		for seed := int64(1); seed <= 3; seed++ {
			c := clankWith(4, 4)
			cs := faults.Case{Strategy: "clank", Workload: w.Name, Plan: faults.Plan{Seed: seed}}
			out, err := faults.AuditRun(ctx, faults.Options{}, c, prog, want, cs)
			if err != nil {
				t.Fatalf("%s: %v", cs, err)
			}
			if len(out.Violations) > 0 {
				t.Fatalf("crash-consistency violation: %v", out.Violations[0])
			}
			// An honest fail-stop (out.Unrecoverable) still leaves valid
			// violation bookkeeping.
			violations += checkCovered(t, rep, c)
		}
	}
	if violations == 0 {
		t.Fatal("no dynamic WAR violations observed under fault injection; coverage check is vacuous")
	}
}

// TestFootprintBoundEliminatesBufferFulls validates the analyzer's
// ClankBound claim: tracking buffers at least as large as the static
// access footprint can never overflow, because between any two clears
// the buffers hold a subset of the words the program can touch.
func TestFootprintBoundEliminatesBufferFulls(t *testing.T) {
	bounded := 0
	for _, w := range workload.All() {
		prog, want, rep := buildFRAM(t, w)
		if rep.Clank.ReadFirstEntries < 0 || rep.Clank.WriteFirstEntries < 0 {
			t.Logf("%s: footprint unbounded, bound not applicable", w.Name)
			continue
		}
		bounded++
		c := clankWith(rep.Clank.ReadFirstEntries, rep.Clank.WriteFirstEntries)
		d, err := device.New(fixedCfg(prog, 20000), c)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Completed {
			t.Fatalf("%s: did not complete", w.Name)
		}
		if !reflect.DeepEqual(res.Output, want) {
			t.Fatalf("%s: output diverged\n got %v\nwant %v", w.Name, res.Output, want)
		}
		if fulls := c.Stats().BufferFulls; fulls != 0 {
			t.Errorf("%s: %d buffer-full checkpoints despite footprint-sized buffers (read %d, write %d)",
				w.Name, fulls, rep.Clank.ReadFirstEntries, rep.Clank.WriteFirstEntries)
		}
		checkCovered(t, rep, c)
	}
	if bounded == 0 {
		t.Fatal("no workload had a bounded footprint; the ClankBound claim was never exercised")
	}
}

// TestTaskFootprintsCoverAlpacaCommits cross-validates the task
// decomposition pass against the checkpoint-free runtime built on it:
// every task commit an Alpaca run records — on clean intermittent
// power and with the fault injector forcing task re-executions — must
// flush a write set contained in the static footprint of the task
// entry it committed from. The static per-task write sets are the
// sound over-approximation the Eq. 15 buffer bound is sized against,
// so a dynamic word outside them would unsound the sizing.
func TestTaskFootprintsCoverAlpacaCommits(t *testing.T) {
	ctx := context.Background()
	checked, reexecs := 0, 0
	for _, name := range []string{"counter", "ds", "crc", "qsort"} {
		w, ok := workload.Get(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		opts := workload.Options{Seg: asm.SRAM}
		prog, err := w.Build(opts)
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		want := w.Ref(opts)

		verify := func(label string, a *strategy.Alpaca) {
			tt := a.Table()
			if tt == nil {
				t.Fatalf("%s/%s: decomposition pass fell back, no task table", name, label)
			}
			for _, co := range a.Commits() {
				// A coalesced commit flushes the writes of every task in
				// its span, so the containing set is the union of their
				// static footprints.
				static := make(map[uint32]struct{})
				top := false
				for _, entry := range append([]uint32{co.Entry}, co.Span...) {
					words, unbounded, ok := tt.FootprintAt(entry)
					if !ok {
						t.Errorf("%s/%s: commit span entry %d not a static task boundary", name, label, entry)
						continue
					}
					if unbounded {
						top = true
						continue
					}
					for _, wd := range words {
						static[wd] = struct{}{}
					}
				}
				checked++
				if top {
					continue // an unbounded static footprint contains everything
				}
				for _, wd := range co.Words {
					if _, in := static[wd]; !in {
						t.Errorf("%s/%s: task span from entry %d committed word %#x outside its static footprint union",
							name, label, co.Entry, wd)
					}
				}
			}
		}

		// Clean intermittent power.
		a := strategy.NewAlpaca()
		a.RecordCommits()
		d, err := device.New(fixedCfg(prog, 20000), a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Completed || !reflect.DeepEqual(res.Output, want) {
			t.Fatalf("%s: alpaca run diverged: completed=%v got %v want %v",
				name, res.Completed, res.Output, want)
		}
		verify("clean", a)

		// Fault injection: power cuts force reboots, so recorded commits
		// include re-executed tasks restarting from committed boundaries.
		for seed := int64(1); seed <= 2; seed++ {
			fa := strategy.NewAlpaca()
			fa.RecordCommits()
			cs := faults.Case{Strategy: "alpaca", Workload: name, Plan: faults.Plan{Seed: seed}}
			out, err := faults.AuditRun(ctx, faults.Options{}, fa, prog, want, cs)
			if err != nil {
				t.Fatalf("%s: %v", cs, err)
			}
			if len(out.Violations) > 0 {
				t.Fatalf("%s: crash-consistency violation: %v", cs, out.Violations[0])
			}
			verify("faulted", fa)
			reexecs += out.Faults.PowerCuts
		}
	}
	if checked == 0 {
		t.Fatal("no task commits recorded; containment check is vacuous")
	}
	if reexecs == 0 {
		t.Fatal("fault injection delivered no power cuts; re-execution containment never exercised")
	}
}

// TestEq15PlanReplaySafe closes the loop on the paper's Eq. 15: derive
// τ_store statically, size the circular buffer with the analytic plan,
// check the plan statically, then simulate the planned kernel under
// Clank with footprint-sized tracking buffers — both on clean
// intermittent power and under the full fault mix — and require exact
// replay throughout.
func TestEq15PlanReplaySafe(t *testing.T) {
	const (
		n, iters   = 4, 3
		writeback  = 0
		tauBTarget = 170.0
	)
	// Static τ_store from a probe build sized like the kernel itself.
	probe, err := workload.CircularBuffer(n, n, iters, asm.FRAM)
	if err != nil {
		t.Fatal(err)
	}
	probeRep, err := analyze.Analyze(probe)
	if err != nil {
		t.Fatal(err)
	}
	res15, err := probeRep.Eq15(n, n, writeback, tauBTarget)
	if err != nil {
		t.Fatal(err)
	}
	if res15.TauStore != workload.CircularBufferStoreCycles() {
		t.Fatalf("static tau_store %g, want %g", res15.TauStore, workload.CircularBufferStoreCycles())
	}
	if res15.Satisfied {
		t.Fatalf("N=%d should not reach the %g-cycle target", n, tauBTarget)
	}
	if res15.NOpt <= n {
		t.Fatalf("planned buffer N=%d not larger than array n=%d", res15.NOpt, n)
	}

	// Rebuild at the planned size and re-check statically.
	prog, err := workload.CircularBuffer(n, res15.NOpt, iters, asm.FRAM)
	if err != nil {
		t.Fatal(err)
	}
	want := workload.CircularBufferRef(n, res15.NOpt, iters)
	rep, err := analyze.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := rep.Eq15(n, res15.NOpt, writeback, tauBTarget)
	if err != nil {
		t.Fatal(err)
	}
	if !planned.Satisfied {
		t.Fatalf("planned size N=%d does not satisfy Eq. 15: tau_B %g < %g",
			res15.NOpt, planned.TauB, tauBTarget)
	}
	if rep.Clank.ReadFirstEntries < 0 || rep.Clank.WriteFirstEntries < 0 {
		t.Fatal("planned kernel footprint unbounded")
	}

	// Clean intermittent power.
	c := clankWith(rep.Clank.ReadFirstEntries, rep.Clank.WriteFirstEntries)
	d, err := device.New(fixedCfg(prog, 20000), c)
	if err != nil {
		t.Fatal(err)
	}
	run, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !run.Completed || !reflect.DeepEqual(run.Output, want) {
		t.Fatalf("planned kernel replay diverged: completed=%v got %v want %v",
			run.Completed, run.Output, want)
	}
	if fulls := c.Stats().BufferFulls; fulls != 0 {
		t.Errorf("planned kernel still overflowed tracking buffers %d time(s)", fulls)
	}
	checkCovered(t, rep, c)

	// Full fault mix.
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		fc := clankWith(rep.Clank.ReadFirstEntries, rep.Clank.WriteFirstEntries)
		cs := faults.Case{Strategy: "clank", Workload: "circular-eq15", Plan: faults.Plan{Seed: seed}}
		out, err := faults.AuditRun(ctx, faults.Options{}, fc, prog, want, cs)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Violations) > 0 {
			t.Fatalf("planned kernel not replay-safe under faults: %v", out.Violations[0])
		}
		if fulls := fc.Stats().BufferFulls; fulls != 0 {
			t.Errorf("seed %d: %d buffer-full checkpoints under faults", seed, fulls)
		}
		checkCovered(t, rep, fc)
	}
}
