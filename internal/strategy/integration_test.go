package strategy

import (
	"errors"
	"reflect"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/obsv"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// allCombos exercises the shared catalog: every strategy under its
// default parameters with the data placement its memory model requires.
func allCombos() []Spec { return Catalog() }

// fixedCfg builds a bench-supply device config with the given per-period
// energy expressed in ALU cycles.
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

// TestEquivalenceAcrossStrategies is the central correctness theorem of
// the simulator: for every workload × strategy, the committed output of
// an aggressively intermittent run equals the continuous-run oracle.
func TestEquivalenceAcrossStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("integration matrix is slow")
	}
	for _, c := range allCombos() {
		for _, w := range workload.All() {
			c, w := c, w
			t.Run(c.Name+"/"+w.Name, func(t *testing.T) {
				t.Parallel()
				opts := workload.Options{Seg: c.Seg}
				prog, err := w.Build(opts)
				if err != nil {
					t.Fatal(err)
				}
				// Periods must exceed Clank's 8000-cycle watchdog, or a
				// workload forming one unbounded idempotent region (e.g.
				// counter) can livelock — a real Clank deployment
				// constraint, not a simulator artifact.
				d, err := device.New(fixedCfg(prog, 20000), c.New())
				if err != nil {
					t.Fatal(err)
				}
				res, err := d.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Completed {
					t.Fatalf("did not complete: %d periods, %d cycles, %d backups",
						len(res.Periods), res.TotalCycles, res.Backups())
				}
				want := w.Ref(opts)
				if !reflect.DeepEqual(res.Output, want) {
					t.Fatalf("output mismatch after %d periods:\n got %v\nwant %v",
						len(res.Periods), res.Output, want)
				}
				if p := res.MeasuredProgress(); p <= 0 || p > 1 {
					t.Errorf("progress %g out of range", p)
				}
			})
		}
	}
}

// TestEquivalenceUnderHarvestedPower repeats the equivalence check with
// a real harvester driving the supply (the §V-B setup) for a workload
// sample on Clank.
func TestEquivalenceUnderHarvestedPower(t *testing.T) {
	for _, kind := range trace.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			w, _ := workload.Get("counter")
			opts := workload.Options{Seg: asm.FRAM}
			prog, err := w.Build(opts)
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.Generate(kind, 20, 1e-3, 42)
			h, err := energy.NewHarvester(tr, 3000, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fixedCfg(prog, 6000)
			cfg.Harvester = h
			d, err := device.New(cfg, NewClank())
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("did not complete under %v trace: %d periods", kind, len(res.Periods))
			}
			if !reflect.DeepEqual(res.Output, w.Ref(opts)) {
				t.Fatalf("output mismatch: %v", res.Output)
			}
			if res.TimeS <= 0 {
				t.Error("no simulated time elapsed")
			}
		})
	}
}

// TestStrategyNames ensures unique, stable names (results are keyed on
// them).
func TestStrategyNames(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range allCombos() {
		n := c.New().Name()
		if n == "" || seen[n] {
			t.Errorf("bad or duplicate strategy name %q", n)
		}
		seen[n] = true
	}
}

// TestDetectLivelockRunWideCounters checks that the livelock diagnosis
// does not hinge on device.Memoryless. Clank and Ratchet keep run-wide
// trigger counters, so the batched engine never replays their periods,
// yet on a budget too small to reach their first committed backup every
// charge dies identically: both engines must report the livelock after
// two periods, and without the diagnosis the batched run must simulate
// every period.
func TestDetectLivelockRunWideCounters(t *testing.T) {
	w, ok := workload.Get("counter")
	if !ok {
		t.Fatal("counter workload missing")
	}
	for _, name := range []string{"clank", "ratchet"} {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("no %s in catalog", name)
		}
		prog, err := w.Build(workload.Options{Seg: spec.Seg})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []device.Engine{device.EngineReference, device.EngineBatched} {
			cfg := fixedCfg(prog, 30)
			cfg.Engine = eng
			cfg.DetectLivelock = true
			d, err := device.New(cfg, spec.New())
			if err != nil {
				t.Fatal(err)
			}
			_, err = d.Run()
			var np *device.NoProgressError
			if !errors.As(err, &np) || !np.Livelock || np.Periods != 2 {
				t.Fatalf("%s, engine %v: want a livelock after 2 periods, got %v", name, eng, err)
			}
		}
		cfg := fixedCfg(prog, 30)
		cfg.MaxPeriods = 500
		var m obsv.Metrics
		cfg.Observe = &m
		d, err := device.New(cfg, spec.New())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(); err != nil {
			t.Fatal(err)
		}
		if m.FastForwardPeriods != 0 || m.Periods != 500 {
			t.Fatalf("%s: %d of %d periods fast-forwarded, want 0 of 500", name, m.FastForwardPeriods, m.Periods)
		}
	}
}
