package device_test

import (
	"fmt"
	"reflect"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/faults"
	"ehmodel/internal/strategy"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// This file holds the lock-step equivalence oracle for the batched
// execution engine: for every workload × strategy × supply shape
// (bench, harvested RF trace, fault-injected), a run under
// EngineBatched must produce a Result byte-identical to EngineReference
// — same periods, same backups, same committed output, same
// floating-point energy accounting to the last bit. All three supply
// shapes settle in the same fused loop, so the harvested and faulted
// cases pin its harvest-credit and cut-guard branches. Short mode and
// race-detector builds run a representative slice; a plain
// `go test` without -short runs the full matrix (that is `make
// check`'s race-free test pass — see equivFullMatrix).

// violationWorder is implemented by Clank; its WAR-hazard word set must
// also survive the engine swap.
type violationWorder interface {
	ViolationWords() []uint32
}

// benchEquivCfg builds the bench-supply config the integration tests
// use: per-period energy expressed in ALU cycles.
func benchEquivCfg(prog *asm.Program, cyclesOfEnergy float64) device.Config {
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

// runEngines executes the same configuration under both engines —
// fresh strategy, fresh injector, fresh harvester per run via the make
// callback — and fails the test on any observable difference.
func runEngines(t *testing.T, make func(eng device.Engine) (*device.Device, device.Strategy)) {
	t.Helper()
	dRef, sRef := make(device.EngineReference)
	resRef, errRef := dRef.Run()
	dBat, sBat := make(device.EngineBatched)
	resBat, errBat := dBat.Run()

	if (errRef == nil) != (errBat == nil) ||
		(errRef != nil && errRef.Error() != errBat.Error()) {
		t.Fatalf("engines disagree on error:\nreference: %v\nbatched:   %v", errRef, errBat)
	}
	if errRef != nil {
		return
	}
	if !reflect.DeepEqual(resRef, resBat) {
		t.Fatalf("results differ:\n%s", diffResults(resRef, resBat))
	}
	vwRef, okRef := sRef.(violationWorder)
	vwBat, okBat := sBat.(violationWorder)
	if okRef && okBat && !reflect.DeepEqual(vwRef.ViolationWords(), vwBat.ViolationWords()) {
		t.Fatalf("violation words differ:\nreference: %v\nbatched:   %v",
			vwRef.ViolationWords(), vwBat.ViolationWords())
	}
}

// diffResults names what diverged, so an equivalence failure points at
// the field — and for period stats, the first differing period —
// instead of dumping two megabyte-scale structs.
func diffResults(a, b *device.Result) string {
	var out string
	av, bv := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		if reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			continue
		}
		switch name {
		case "Periods":
			if len(a.Periods) != len(b.Periods) {
				out += fmt.Sprintf("Periods: %d vs %d periods\n", len(a.Periods), len(b.Periods))
				continue
			}
			for p := range a.Periods {
				if !reflect.DeepEqual(a.Periods[p], b.Periods[p]) {
					out += fmt.Sprintf("Periods[%d]:\nreference: %+v\nbatched:   %+v\n",
						p, a.Periods[p], b.Periods[p])
					break
				}
			}
		default:
			out += fmt.Sprintf("%s:\nreference: %+v\nbatched:   %+v\n",
				name, av.Field(i).Interface(), bv.Field(i).Interface())
		}
	}
	if out == "" {
		out = "(structs compare unequal but no field diff found)"
	}
	return out
}

// equivFullMatrix reports whether the oracle should run its full
// workload × strategy × supply matrix. The slice is used in -short runs
// and under the race detector: race instrumentation slows the fused
// settle loop roughly 10×, which pushes the full matrix past any
// reasonable package timeout, so `make check` runs the matrix in its
// race-free `go test` pass and keeps the representative slice — every
// engine path, three strategies, two workloads, one trace, one fault
// seed — under -race.
func equivFullMatrix() bool { return !testing.Short() && !raceEnabled }

// equivSpecs returns the strategy slice for the current test mode.
func equivSpecs(t *testing.T) []strategy.Spec {
	if equivFullMatrix() {
		return strategy.Catalog()
	}
	var out []strategy.Spec
	for _, name := range []string{"clank", "hibernus", "timer"} {
		s, ok := strategy.Lookup(name)
		if !ok {
			t.Fatalf("strategy %q missing from catalog", name)
		}
		out = append(out, s)
	}
	return out
}

// equivWorkloads returns the workload slice for the current test mode.
func equivWorkloads(t *testing.T) []workload.Workload {
	if equivFullMatrix() {
		return workload.All()
	}
	var out []workload.Workload
	for _, name := range []string{"counter", "crc"} {
		w, ok := workload.Get(name)
		if !ok {
			t.Fatalf("workload %q missing", name)
		}
		out = append(out, w)
	}
	return out
}

// TestEngineEquivalenceBench is the bench-supply face of the oracle:
// fixed energy per period, instantly recharged.
func TestEngineEquivalenceBench(t *testing.T) {
	for _, c := range equivSpecs(t) {
		for _, w := range equivWorkloads(t) {
			c, w := c, w
			t.Run(c.Name+"/"+w.Name, func(t *testing.T) {
				t.Parallel()
				prog, err := w.Build(workload.Options{Seg: c.Seg})
				if err != nil {
					t.Fatal(err)
				}
				runEngines(t, func(eng device.Engine) (*device.Device, device.Strategy) {
					cfg := benchEquivCfg(prog, 20000)
					cfg.Engine = eng
					s := c.New()
					d, err := device.New(cfg, s)
					if err != nil {
						t.Fatal(err)
					}
					return d, s
				})
			})
		}
	}
}

// TestEngineEquivalenceWideWindow aims the oracle at the fused settle
// loop's window regimes. Large windows: timer windows far beyond
// maxBatchCycles (so batches run at the cap and PostStep firings land
// mid-stretch), windows aligned to the cap, and the infinite window
// (batches bounded by the energy horizon alone). Short windows: timer
// and Hibernus comparator windows down to one instruction, which batch
// whenever their horizon exceeds one cycle. Supplies that complete the
// workload in one period and supplies that brown out repeatedly both
// appear, so the per-step fallback and mid-run death execute under
// both engines at every window size.
func TestEngineEquivalenceWideWindow(t *testing.T) {
	timer := func(tauB uint64) func() device.Strategy {
		return func() device.Strategy { return strategy.NewTimer(tauB, 0.1) }
	}
	hibernus := func(checkPeriod uint64, margin float64) func() device.Strategy {
		return func() device.Strategy {
			h := strategy.NewHibernus()
			h.CheckPeriod, h.Margin = checkPeriod, margin
			return h
		}
	}
	cases := []struct {
		name           string
		strat          func() device.Strategy
		cyclesOfEnergy float64
		// maxPeriods and maxCycles replace benchEquivCfg's run limits
		// when nonzero.
		maxPeriods int
		maxCycles  uint64
	}{
		{"wide-window/one-period", timer(50_000), 600_000, 0, 0},
		{"wide-window/brownouts", timer(20_000), 60_000, 0, 0},
		{"chunk-aligned", timer(8192), 100_000, 0, 0},
		{"infinite-window", timer(0), 600_000, 0, 0},
		{"short-window/timer-2", timer(2), 20_000, 0, 0},
		{"short-window/timer-7", timer(7), 20_000, 0, 0},
		{"short-window/timer-31", timer(31), 20_000, 0, 0},
		{"short-window/hibernus-check-1", hibernus(1, 2), 20_000, 0, 0},
		{"short-window/hibernus-check-2", hibernus(2, 2), 20_000, 0, 0},
		{"short-window/hibernus-check-15", hibernus(15, 2), 20_000, 0, 0},
		{"short-window/hibernus-check-33", hibernus(33, 2), 20_000, 0, 0},
		// §IV-B's hazard: on this supply the backup dies mid-write every
		// period, so the run never completes and samples every window
		// of every period up to MaxPeriods.
		{"short-window/hibernus-margin-1.02", hibernus(16, 1.02), 3_000, 200, 0},
		// A SENSE ends a batch inside a comparator window; the wrapper
		// must still count the cycles before it toward the next sample.
		{"short-window/hibernus+sense", func() device.Strategy {
			return strategy.NewSenseCommit(strategy.NewHibernus())
		}, 20_000, 0, 0},
		// An odd run limit ends the final batch inside a timer window.
		{"short-window/odd-max-cycles", timer(1000), 3_000, 0, 12_345},
	}
	for _, c := range cases {
		for _, w := range equivWorkloads(t) {
			c, w := c, w
			t.Run(c.name+"/"+w.Name, func(t *testing.T) {
				t.Parallel()
				prog, err := w.Build(workload.Options{})
				if err != nil {
					t.Fatal(err)
				}
				runEngines(t, func(eng device.Engine) (*device.Device, device.Strategy) {
					cfg := benchEquivCfg(prog, c.cyclesOfEnergy)
					cfg.Engine = eng
					if c.maxPeriods != 0 {
						cfg.MaxPeriods = c.maxPeriods
					}
					if c.maxCycles != 0 {
						cfg.MaxCycles = c.maxCycles
					}
					s := c.strat()
					d, err := device.New(cfg, s)
					if err != nil {
						t.Fatal(err)
					}
					return d, s
				})
			})
		}
	}
}

// TestEngineEquivalenceHarvested repeats the oracle with an RF-style
// harvester driving the supply, so batches meet charge phases, partial
// periods and harvest-while-executing accounting — including the
// fused loop's inlined capacitor clamp at VMax, which every period on
// these supplies starts at.
func TestEngineEquivalenceHarvested(t *testing.T) {
	kinds := trace.Kinds()
	if !equivFullMatrix() {
		kinds = kinds[:1]
	}
	for _, c := range equivSpecs(t) {
		for _, kind := range kinds {
			c, kind := c, kind
			t.Run(c.Name+"/"+kind.String(), func(t *testing.T) {
				t.Parallel()
				w, ok := workload.Get("counter")
				if !ok {
					t.Fatal("counter workload missing")
				}
				prog, err := w.Build(workload.Options{Seg: c.Seg})
				if err != nil {
					t.Fatal(err)
				}
				tr := trace.Generate(kind, 20, 1e-3, 42)
				runEngines(t, func(eng device.Engine) (*device.Device, device.Strategy) {
					h, err := energy.NewHarvester(tr, 3000, 0.7)
					if err != nil {
						t.Fatal(err)
					}
					cfg := benchEquivCfg(prog, 6000)
					cfg.Engine = eng
					cfg.Harvester = h
					s := c.New()
					d, err := device.New(cfg, s)
					if err != nil {
						t.Fatal(err)
					}
					return d, s
				})
			})
		}
	}
}

// TestEngineEquivalenceFaulted repeats the oracle under fault
// injection: scheduled and random power cuts (which the batched engine
// must land on the exact per-step instruction), torn checkpoint
// writes, bit flips and stale restores.
func TestEngineEquivalenceFaulted(t *testing.T) {
	seeds := []int64{1}
	if equivFullMatrix() {
		seeds = []int64{1, 7, 23}
	}
	for _, c := range equivSpecs(t) {
		for _, w := range equivWorkloads(t) {
			for _, seed := range seeds {
				c, w, seed := c, w, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", c.Name, w.Name, seed), func(t *testing.T) {
					t.Parallel()
					prog, err := w.Build(workload.Options{Seg: c.Seg})
					if err != nil {
						t.Fatal(err)
					}
					plan := faults.Plan{
						Seed:                seed,
						RandomCutMeanCycles: 30_000,
						CutCycles:           []uint64{50_000, 123_456},
						TornWriteProb:       0.01,
						BitFlipRate:         1e-4,
						StaleRestoreProb:    0.05,
					}
					runEngines(t, func(eng device.Engine) (*device.Device, device.Strategy) {
						inj, err := faults.New(plan)
						if err != nil {
							t.Fatal(err)
						}
						cfg := benchEquivCfg(prog, 20000)
						cfg.Engine = eng
						cfg.Faults = inj
						s := c.New()
						d, err := device.New(cfg, s)
						if err != nil {
							t.Fatal(err)
						}
						return d, s
					})
				})
			}
		}
	}
}
