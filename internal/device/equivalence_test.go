package device_test

import (
	"fmt"
	"reflect"
	"slices"
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

// strategyExtras returns what a runtime records outside the Result —
// Clank's trigger counts and WAR-hazard words, Ratchet's violation
// count, Alpaca's commit log — which must survive the engine swap too.
// Both engines run these runtimes' PreSteps, the batched one mostly
// through their PreStepFilter, so the counts pin where each fired.
func strategyExtras(s device.Strategy) any {
	switch s := s.(type) {
	case *strategy.Clank:
		return []any{s.Stats(), s.ViolationWords()}
	case *strategy.Ratchet:
		return s.Violations()
	case *strategy.Alpaca:
		return s.Commits()
	}
	return nil
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
	if xRef, xBat := strategyExtras(sRef), strategyExtras(sBat); !reflect.DeepEqual(xRef, xBat) {
		t.Fatalf("%s run records differ:\nreference: %+v\nbatched:   %+v", sRef.Name(), xRef, xBat)
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
// loop's window regimes and at the fixed-point fast-forward. Large
// windows: timer windows far beyond maxBatchCycles (so batches run at
// the cap and PostStep firings land mid-stretch), windows aligned to the
// cap, and the infinite window (batches bounded by the energy horizon
// alone). Short windows: timer and Hibernus comparator windows down to
// one instruction, which batch whenever their horizon exceeds one cycle.
// Supplies that complete the workload in one period and supplies that
// brown out repeatedly both appear, so the per-step fallback and
// mid-run death execute under both engines at every window size. The
// fixed-point rows pin the replay: a run that freezes after committing,
// zero-commit periods that store to FRAM (which must never replay), and
// a run limit that lands mid-period. The sleep rows aim at Hibernus's
// post-backup sleep, which the batched engine settles in its fused
// sleep and the reference engine through consume, on a harvested supply
// whose sleeps clamp at VMax and on one whose sleeps never do. Every row
// also seeds FuzzEngineEquivalence.
func TestEngineEquivalenceWideWindow(t *testing.T) {
	for _, r := range wideWindowRows() {
		for _, wl := range r.workloads(t) {
			r, c := r, r.equivCase
			c.workload = wl
			t.Run(r.name+"/"+wl, func(t *testing.T) {
				t.Parallel()
				c.run(t)
				if r.clamps || r.noClamp {
					// The sleep must really take the path the row aims at.
					clamped, general := c.sleepChunks(t)
					if r.clamps && (clamped == 0 || general == 0) || r.noClamp && (clamped != 0 || general == 0) {
						t.Fatalf("fused sleep settled %d clamped and %d general chunks", clamped, general)
					}
					t.Logf("fused sleep settled %d clamped and %d general chunks", clamped, general)
				}
				if !r.checksFF(wl) {
					return
				}
				// The replay must really fire where the row says it does
				// (and stay off where it must), or the row proves nothing.
				ff := c.fastForwarded(t)
				if r.noFF && ff != 0 {
					t.Fatalf("batched engine fast-forwarded %d periods; want none", ff)
				}
				if ff < r.minFF {
					t.Fatalf("batched engine fast-forwarded %d periods; want at least %d", ff, r.minFF)
				}
				t.Logf("batched engine fast-forwarded %d periods", ff)
			})
		}
	}
}

// wideWindowRow is one TestEngineEquivalenceWideWindow configuration.
// Without a workload it runs on every equivWorkloads workload.
type wideWindowRow struct {
	name string
	equivCase
	// minFF is the fewest periods the batched engine must fast-forward on
	// counter and crc (or on the row's own workload); noFF forbids any.
	minFF uint64
	noFF  bool
	// clamps requires the batched engine's fused sleep to settle chunks
	// on both its clamped and general paths; noClamp requires general
	// chunks only.
	clamps, noClamp bool
}

func (r wideWindowRow) workloads(t *testing.T) []string {
	if r.workload != "" {
		return []string{r.workload}
	}
	var out []string
	for _, w := range equivWorkloads(t) {
		out = append(out, w.Name)
	}
	return out
}

// pinned lists the workloads the row pins the replay on and seeds
// FuzzEngineEquivalence with: counter and crc, or the row's own workload.
func (r wideWindowRow) pinned() []string {
	if r.workload != "" {
		return []string{r.workload}
	}
	return []string{"counter", "crc"}
}

// checksFF reports whether the row pins the replay on this workload.
func (r wideWindowRow) checksFF(wl string) bool {
	return (r.minFF > 0 || r.noFF) && slices.Contains(r.pinned(), wl)
}

// wideWindowRows lists the TestEngineEquivalenceWideWindow table.
// Margins are in thousandths, as FuzzEngineEquivalence decodes them.
func wideWindowRows() []wideWindowRow {
	timer := func(tauB uint32, energy uint32) equivCase {
		return equivCase{strategy: "timer", window: tauB, energy: energy}
	}
	hibernus := func(check, margin uint16, energy uint32) equivCase {
		return equivCase{strategy: "hibernus", check: check, margin: margin, energy: energy}
	}
	limits := func(c equivCase, maxPeriods uint16, maxCycles uint32) equivCase {
		c.maxPeriods, c.maxCycles = maxPeriods, maxCycles
		return c
	}
	sense := hibernus(16, 2000, 20_000)
	sense.sense = true
	senseBrownouts := hibernus(32, 2000, 3_000)
	senseBrownouts.sense, senseBrownouts.workload = true, "sense"
	meter := hibernus(16, 2000, 3_000)
	meter.meter = true
	// Hibernus at its defaults on the sim-harvest benchmark's supply: crc
	// at Scale 10, a trace of the given kind into R 3000 Ω at η 0.7, a
	// 6k-cycle capacitor.
	harvested := func(supply uint8) equivCase {
		c := hibernus(16, 2000, 6_000)
		c.workload, c.scale, c.supply, c.seed = "crc", 10, supply, 1
		return c
	}
	return []wideWindowRow{
		{name: "wide-window/one-period", equivCase: timer(50_000, 600_000)},
		{name: "wide-window/brownouts", equivCase: timer(20_000, 60_000)},
		{name: "chunk-aligned", equivCase: timer(8192, 100_000)},
		{name: "infinite-window", equivCase: timer(0, 600_000)},
		{name: "short-window/timer-2", equivCase: timer(2, 20_000)},
		{name: "short-window/timer-7", equivCase: timer(7, 20_000)},
		{name: "short-window/timer-31", equivCase: timer(31, 20_000)},
		{name: "short-window/hibernus-check-1", equivCase: hibernus(1, 2000, 20_000)},
		{name: "short-window/hibernus-check-2", equivCase: hibernus(2, 2000, 20_000)},
		{name: "short-window/hibernus-check-15", equivCase: hibernus(15, 2000, 20_000)},
		{name: "short-window/hibernus-check-33", equivCase: hibernus(33, 2000, 20_000)},
		// §IV-B's hazard: on this supply the backup dies mid-write every
		// period, so the run never completes and repeats one zero-commit
		// period up to MaxPeriods — the fast-forward's home case.
		{name: "short-window/hibernus-margin-1.02",
			equivCase: limits(hibernus(16, 1020, 3_000), 200, 0), minFF: 190},
		// A SENSE ends a batch inside a comparator window; the wrapper
		// must still count the cycles before it toward the next sample.
		{name: "short-window/hibernus+sense", equivCase: sense},
		// The same on the SENSE-heavy workload under a budget that browns
		// out, where those counted cycles decide where each sample lands.
		{name: "short-window/hibernus+sense-brownouts", equivCase: senseBrownouts},
		// RegionMeter's Horizon of 1 sends every instruction of a batched
		// strategy through stepOnce on both engines, the comparator's
		// post-backup sleep included, under a budget that browns out.
		{name: "per-step/hibernus+meter", equivCase: meter},
		// An odd run limit ends the final batch inside a timer window.
		{name: "short-window/odd-max-cycles", equivCase: limits(timer(1000, 3_000), 0, 12_345)},
		// Mementos commits in the first few periods, then reaches a
		// region no charge can finish and freezes into a fixed point.
		{name: "fixed-point/commits-then-freezes", equivCase: limits(equivCase{
			workload: "qsort", strategy: "mementos", window: 512, margin: 3000, energy: 1000,
		}, 200, 0), minFF: 150},
		// The access-tracking runtimes batch through their PreStep
		// filters, which must end each batch just before a PreStep that
		// fires. Small buffers, a short watchdog and coalescing window,
		// and budgets that brown out make those PreSteps fire often;
		// Alpaca's row also compares its commit log.
		{name: "filtered/clank-small-buffers", equivCase: equivCase{
			strategy: "clank", buf: 2, window: 300, energy: 3_000,
		}},
		{name: "filtered/ratchet-short-region", equivCase: equivCase{
			strategy: "ratchet", window: 200, energy: 3_000,
		}},
		{name: "filtered/alpaca-commits", equivCase: equivCase{
			strategy: "alpaca", window: 16, energy: 5_000, commits: true,
		}},
		// SenseCommit must forward Alpaca's filter along with its
		// Horizon: without it the batched engine would run through the
		// boundary commits Alpaca's PreStep takes.
		{name: "filtered/alpaca+sense", equivCase: equivCase{
			workload: "sense", strategy: "alpaca", sense: true, window: 16, energy: 5_000,
		}},
		// Every period cold-starts and bumps a FRAM-resident counter that
		// drives the loop, committing nothing until the counter reaches
		// its bound: the periods look alike but must never replay.
		{name: "fixed-point/fram-stores", equivCase: equivCase{
			workload: framCounterName, strategy: "timer", energy: 3_000,
		}, noFF: true},
		// A fixed point whose odd run limit lands mid-period: replay up to
		// the last whole period, then simulate the cut-short one.
		{name: "fixed-point/odd-max-cycles",
			equivCase: limits(hibernus(16, 1020, 3_000), 0, 123_457), minFF: 30},
		// On multipeak each sleep clamps at VMax for hundreds of thousands
		// of chunks, drains in a trough and dies.
		{name: "sleep/hibernus-multipeak", equivCase: harvested(3), clamps: true},
		// On spikes the harvest never lifts a sleep to VMax.
		{name: "sleep/hibernus-spikes", equivCase: harvested(1), noClamp: true},
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

// TestEngineEquivalenceZeroPowerClass runs the oracle with a class that
// draws 0 W, which PowerModel.Validate accepts. Every instruction or
// sleep chunk of that class then draws 0 J, and the capacitor's draw
// must leave the voltage exactly as it found it: recomputing √(2e/C)
// from ½C·v² need not give back v's bits. Four workloads at Scale 2
// under four runtimes, on a bench supply and on TestFusedSleepPaths'
// multipeak harvest, with a free ALU class and with a free idle class.
// A sleep that draws nothing never dies, so the runs stop at 20 M
// cycles; on the harvest, Hibernus's such sleeps sit at VMax, where
// the draw from a full capacitor leaves it full, and the fused sleep
// must settle them on its clamped path.
func TestEngineEquivalenceZeroPowerClass(t *testing.T) {
	tr := trace.Generate(trace.MultiPeak, 20, 1e-3, 1)
	for _, class := range []energy.InstrClass{energy.ClassALU, energy.ClassIdle} {
		for _, name := range []string{"timer", "hibernus", "mementos", "dino"} {
			spec, ok := strategy.Lookup(name)
			if !ok {
				t.Fatalf("strategy %q missing from catalog", name)
			}
			for _, wl := range []string{"crc", "ds", "sha", "counter"} {
				w, ok := workload.Get(wl)
				if !ok {
					t.Fatalf("workload %q missing", wl)
				}
				for _, harvest := range []bool{false, true} {
					// crc and counter sleep; ds and sha finish first.
					sitsAtVMax := class == energy.ClassIdle && name == "hibernus" && harvest && (wl == "crc" || wl == "counter")
					t.Run(fmt.Sprintf("%v/%s/%s/harvest=%v", class, name, wl, harvest), func(t *testing.T) {
						t.Parallel()
						prog, err := w.Build(workload.Options{Seg: spec.Seg, Scale: 2})
						if err != nil {
							t.Fatal(err)
						}
						var batched *device.Device
						runEngines(t, func(eng device.Engine) (*device.Device, device.Strategy) {
							cfg := benchEquivCfg(prog, 6000)
							cfg.Engine = eng
							cfg.MaxCycles = 20_000_000
							cfg.Power.PowerW[class] = 0
							if harvest {
								if cfg.Harvester, err = energy.NewHarvester(tr, 3000, 0.7); err != nil {
									t.Fatal(err)
								}
							}
							s := spec.New()
							d, err := device.New(cfg, s)
							if err != nil {
								t.Fatal(err)
							}
							batched = d // the batched engine runs second
							return d, s
						})
						if clamped, _ := batched.SleepChunks(); sitsAtVMax && clamped == 0 {
							t.Fatal("the fused sleep settled no clamped chunk")
						}
					})
				}
			}
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
