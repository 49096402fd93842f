package strategy_test

import (
	"context"
	"errors"
	"testing"

	"ehmodel/internal/analyze"
	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/faults"
	"ehmodel/internal/strategy"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// wcecSample keeps the cross-validation matrix affordable: three
// workloads with distinct loop structure, against every runtime that
// declares its commit-point scheme.
var wcecSample = []string{"counter", "crc", "ds"}

// fixedCfg mirrors the internal test helper of package strategy: a
// bench-supply device config with the given per-period budget in ALU
// cycles.
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

// wcecTableFor runs the verifier under the region semantics the
// runtime declares.
func wcecTableFor(t *testing.T, prog *asm.Program, strat device.Strategy, budgetCycles float64) *analyze.WCECTable {
	t.Helper()
	ro, ok := strat.(device.RegionObserver)
	if !ok {
		t.Fatalf("%s does not declare a region scheme", strat.Name())
	}
	mode := analyze.WCECCheckpoint
	if ro.Regions() == device.RegionTaskBoundaries {
		mode = analyze.WCECTask
	}
	pm := energy.MSP430Power()
	tbl, err := analyze.WCEC(prog, analyze.WCECOptions{
		Mode: mode, Power: pm,
		BudgetJ: budgetCycles * pm.EnergyPerCycle(energy.ClassALU),
	})
	if err != nil {
		t.Fatalf("WCEC: %v", err)
	}
	return tbl
}

// checkObserved asserts the central cross-validation invariant: every
// dynamically observed region traversal is bounded by the static
// certificate for the same entry. Returns the traversal total for the
// caller's vacuity guard.
func checkObserved(t *testing.T, label string, tbl *analyze.WCECTable, m *strategy.RegionMeter) uint64 {
	t.Helper()
	var total uint64
	for pc, obs := range m.Observed() {
		r := tbl.RegionAt(int(pc))
		if r == nil {
			t.Errorf("%s: meter booked a traversal at pc %d with no static region", label, pc)
			continue
		}
		total += obs.Traversals
		if r.WCUnbounded {
			continue // ∞ bounds everything
		}
		if obs.MaxCycles > r.WCCycles {
			t.Errorf("%s: region entry=%d observed %d cycles > static WCEC %d",
				label, pc, obs.MaxCycles, r.WCCycles)
		}
		if obs.MaxEnergy > r.WCEnergy*(1+1e-9) {
			t.Errorf("%s: region entry=%d observed %g J > static WCE %g J",
				label, pc, obs.MaxEnergy, r.WCEnergy)
		}
	}
	return total
}

// regionSchemeSpecs returns the catalog runtimes that declare static
// region semantics (the ones WCEC certificates are binding for).
func regionSchemeSpecs(t *testing.T) []strategy.Spec {
	t.Helper()
	var out []strategy.Spec
	for _, spec := range strategy.Catalog() {
		if _, ok := spec.New().(device.RegionObserver); ok {
			out = append(out, spec)
		}
	}
	if len(out) < 4 {
		t.Fatalf("expected at least mementos/dino/chain/alpaca to declare regions, got %d", len(out))
	}
	return out
}

// TestWCECBoundsDynamicClean checks dynamic ≤ static on clean
// (fault-free) runs for every region-declaring runtime × sample
// workload × both engines, on the bench supply.
func TestWCECBoundsDynamicClean(t *testing.T) {
	const budgetCycles = 20000
	for _, spec := range regionSchemeSpecs(t) {
		for _, wname := range wcecSample {
			for _, eng := range []device.Engine{device.EngineBatched, device.EngineReference} {
				spec, wname, eng := spec, wname, eng
				t.Run(spec.Name+"/"+wname+"/"+eng.String(), func(t *testing.T) {
					t.Parallel()
					w, ok := workload.Get(wname)
					if !ok {
						t.Fatalf("no workload %q", wname)
					}
					prog, err := w.Build(workload.Options{Seg: spec.Seg})
					if err != nil {
						t.Fatal(err)
					}
					inner := spec.New()
					tbl := wcecTableFor(t, prog, inner, budgetCycles)
					meter := strategy.NewRegionMeter(inner, tbl)
					cfg := fixedCfg(prog, budgetCycles)
					cfg.Engine = eng
					d, err := device.New(cfg, meter)
					if err != nil {
						t.Fatal(err)
					}
					res, err := d.Run()
					if err != nil {
						t.Fatal(err)
					}
					if !res.Completed {
						t.Fatalf("did not complete: %d periods", len(res.Periods))
					}
					if total := checkObserved(t, spec.Name+"/"+wname, tbl, meter); total == 0 {
						t.Error("vacuous: no region traversal was measured")
					}
				})
			}
		}
	}
}

// TestWCECBoundsDynamicHarvested repeats the invariant under a real
// harvester-driven supply: brown-outs now interrupt traversals at
// arbitrary points, which the meter must discard, never book over a
// bound.
func TestWCECBoundsDynamicHarvested(t *testing.T) {
	const budgetCycles = 6000
	for _, spec := range regionSchemeSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			w, _ := workload.Get("counter")
			prog, err := w.Build(workload.Options{Seg: spec.Seg})
			if err != nil {
				t.Fatal(err)
			}
			inner := spec.New()
			tbl := wcecTableFor(t, prog, inner, budgetCycles)
			meter := strategy.NewRegionMeter(inner, tbl)
			tr := trace.Generate(trace.MultiPeak, 20, 1e-3, 42)
			h, err := energy.NewHarvester(tr, 3000, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fixedCfg(prog, budgetCycles)
			cfg.Harvester = h
			d, err := device.New(cfg, meter)
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("did not complete: %d periods", len(res.Periods))
			}
			if total := checkObserved(t, spec.Name+"/harvested", tbl, meter); total == 0 {
				t.Error("vacuous: no region traversal was measured")
			}
		})
	}
}

// TestWCECBoundsDynamicFaulted repeats the invariant under the audit
// engine's fault mix (random power cuts plus stochastic corruption):
// whatever the injected outcome, no observed traversal may exceed its
// certificate.
func TestWCECBoundsDynamicFaulted(t *testing.T) {
	const budgetCycles = 20000
	for _, spec := range regionSchemeSpecs(t) {
		for _, seed := range []int64{1, 2} {
			spec, seed := spec, seed
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				w, _ := workload.Get("crc")
				opts := workload.Options{Seg: spec.Seg}
				prog, err := w.Build(opts)
				if err != nil {
					t.Fatal(err)
				}
				inner := spec.New()
				tbl := wcecTableFor(t, prog, inner, budgetCycles)
				meter := strategy.NewRegionMeter(inner, tbl)
				out, err := faults.AuditRun(context.Background(), faults.Options{},
					meter, prog, w.Ref(opts),
					faults.Case{Strategy: spec.Name, Workload: "crc", Plan: faults.Plan{Seed: seed}})
				if err != nil {
					t.Fatal(err)
				}
				if out.Unrecoverable {
					t.Skip("honest fail-stop; nothing to cross-validate")
				}
				if total := checkObserved(t, spec.Name+"/faulted", tbl, meter); total == 0 {
					t.Error("vacuous: no region traversal was measured")
				}
			})
		}
	}
}

// TestWCECLivelockStaticAndDynamic is the end-to-end acceptance case:
// a deliberately undersized capacitor (5 ALU cycles per charge, less
// than any commit path) is flagged statically as livelock AND the
// simulated device diagnoses the same livelock dynamically via
// NoProgressError.
func TestWCECLivelockStaticAndDynamic(t *testing.T) {
	const budgetCycles = 5
	spec, ok := strategy.Lookup("alpaca")
	if !ok {
		t.Fatal("no alpaca in catalog")
	}
	w, _ := workload.Get("counter")
	prog, err := w.Build(workload.Options{Seg: spec.Seg})
	if err != nil {
		t.Fatal(err)
	}

	// Static verdict: some region's best case already exceeds E_max.
	tbl := wcecTableFor(t, prog, spec.New(), budgetCycles)
	fl := tbl.FirstLivelock()
	if fl == nil {
		t.Fatalf("expected a static livelock verdict at %d cycles:\n%s", budgetCycles, tbl.String())
	}

	// Dynamic twin: the device detects the repeating doomed charge and
	// names a region entry the static table knows.
	cfg := fixedCfg(prog, budgetCycles)
	cfg.DetectLivelock = true
	d, err := device.New(cfg, spec.New())
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Run()
	var np *device.NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("run did not report no-progress: %v", err)
	}
	if !np.Livelock {
		t.Fatalf("expected a livelock diagnosis, got %v", np)
	}
	if tbl.RegionAt(int(np.RegionEntry)) == nil {
		t.Errorf("dynamic region entry=%d is not a static region entry", np.RegionEntry)
	}
}
