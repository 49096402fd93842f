package device_test

import (
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"ehmodel/internal/analyze"
	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/faults"
	"ehmodel/internal/isa"
	"ehmodel/internal/obsv"
	"ehmodel/internal/strategy"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// FuzzEngineEquivalence searches the configuration space for a batched
// run that differs from the reference engine: any workload (unknown
// names favour the SENSE-heavy and FRAM-storing ones) at any scale up
// to fuzzMaxScale, catalog strategy and knob setting, optional
// SenseCommit and RegionMeter, any period energy — including budgets no
// region fits, where runs freeze into fixed points the batched engine
// fast-forwards — on a bench, harvested or fault-injected supply, with
// run limits small enough that one case takes milliseconds. Cases that record an observation log or trace
// events compare those too. Every TestEngineEquivalenceWideWindow row,
// on the workloads it pins the replay on, seeds the search, so plain
// `go test` runs them and `make fuzz-equiv` starts from them.
func FuzzEngineEquivalence(f *testing.F) {
	for _, r := range wideWindowRows() {
		for _, wl := range r.pinned() {
			c := r.equivCase
			f.Add(wl, c.scale, c.strategy, c.sense, c.meter, c.fram, c.window, c.check, c.margin, c.buf,
				c.energy, c.supply, c.seed, c.maxPeriods, c.maxCycles, c.record, c.events, c.commits)
		}
	}
	f.Fuzz(func(t *testing.T, wl string, scale uint8, strat string, sense, meter, fram bool, window uint32, check, margin uint16,
		buf uint8, energy uint32, supply uint8, seed int64, maxPeriods uint16, maxCycles uint32, record, events, commits bool) {
		// A zero or oversized run limit selects the cap.
		if maxPeriods == 0 || maxPeriods > fuzzMaxPeriods {
			maxPeriods = fuzzMaxPeriods
		}
		if maxCycles == 0 || maxCycles > fuzzMaxCycles {
			maxCycles = fuzzMaxCycles
		}
		c := equivCase{
			workload: wl, scale: scale, strategy: strat, sense: sense, meter: meter, fram: fram,
			window: window, check: check, margin: margin, buf: buf, energy: energy,
			supply: supply, seed: seed, maxPeriods: maxPeriods, maxCycles: maxCycles,
			record: record, events: events, commits: commits,
		}
		c.run(t)
	})
}

// Fuzz input decoding limits.
const (
	// fuzzMaxPeriods and fuzzMaxCycles cap a fuzz case's run limits.
	fuzzMaxPeriods = 20_000
	fuzzMaxCycles  = 1 << 21
	// fuzzMaxScale is the largest workload scale a case builds (modulo
	// one more); every workload's data fits SRAM up to it.
	fuzzMaxScale = 16
	// Period energies up to fuzzLiteralEnergy ALU cycles are taken
	// literally, so table rows replay exactly; larger inputs spread
	// log-uniformly over [fuzzMinEnergy, fuzzLiteralEnergy], a range
	// whose low end no region of any workload fits.
	fuzzMinEnergy     = 8
	fuzzLiteralEnergy = 1 << 20
)

// equivCase is one engine-equivalence configuration in the raw form
// FuzzEngineEquivalence receives; the wide-window table is written in
// it too. Unknown workload and strategy names pick one by hash.
type equivCase struct {
	workload, strategy string
	// scale is the workload's Scale, modulo fuzzMaxScale+1 (0 means 1).
	scale uint8
	// sense wraps the strategy in SenseCommit, and meter wraps the result
	// in RegionMeter, whose Horizon of 1 sends every instruction through
	// the per-step protocol whatever the strategy inside; fram places the
	// program's data in FRAM whatever the strategy's own segment.
	sense, meter, fram bool
	// window is τ_B, the watchdog or region cap, Mementos' minimum gap or
	// Alpaca's coalescing, whichever the strategy has; check the
	// comparator's CheckPeriod; margin its Margin in thousandths; buf
	// Clank's buffer entries.
	window        uint32
	check, margin uint16
	buf           uint8
	// energy is the period energy in ALU cycles (see fuzzLiteralEnergy).
	energy uint32
	// supply is bench (0), a trace of each kind (1–3) or a fault plan
	// (4), modulo 5; seed seeds the trace or the plan.
	supply uint8
	seed   int64
	// maxPeriods and maxCycles replace benchEquivCfg's run limits when
	// nonzero.
	maxPeriods uint16
	maxCycles  uint32
	// record compares the runs' observation logs, events their
	// lifecycle events; commits turns on Alpaca's commit log, which
	// runEngines compares.
	record, events, commits bool
}

// framCounterName names the test-only workload framCounter builds.
const framCounterName = "fram-counter"

// framCounter is a FRAM-resident counter that drives its own loop: on a
// budget too small to finish, every period cold-starts, stores to FRAM
// and commits nothing, and the run completes only because those stores
// accumulate across periods — so no such period may be replayed.
func framCounter(t *testing.T) *asm.Program {
	t.Helper()
	b := asm.New(framCounterName)
	b.Seg(asm.FRAM)
	b.Word("count", 0)
	b.La(isa.R1, "count")
	b.Li(isa.R2, 20_000)
	b.Label("loop")
	b.Lw(isa.R4, isa.R1, 0)
	b.Addi(isa.R4, isa.R4, 1)
	b.Sw(isa.R4, isa.R1, 0)
	b.Blt(isa.R4, isa.R2, "loop")
	b.Out(isa.R4)
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pick maps a name to an index in [0, n) by hash.
func pick(name string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(n))
}

// program builds the case's workload with the strategy's segment. An
// unknown name picks by hash: half the time any workload, a quarter
// each sense and the FRAM counter, whose SENSE reads and FRAM stores
// are what the recorder, SenseCommit and the fixed-point test react to.
func (c equivCase) program(t *testing.T, seg asm.Segment) *asm.Program {
	t.Helper()
	if c.fram {
		seg = asm.FRAM
	}
	if c.workload == framCounterName {
		return framCounter(t)
	}
	w, ok := workload.Get(c.workload)
	if !ok {
		all := workload.All()
		switch i := pick(c.workload, 2*len(all)); {
		case i < len(all):
			w = all[i]
		case i%2 == 0:
			w, _ = workload.Get("sense")
		default:
			return framCounter(t)
		}
	}
	prog, err := w.Build(workload.Options{Seg: seg, Scale: int(c.scale % (fuzzMaxScale + 1))})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// spec resolves the strategy name.
func (c equivCase) spec() strategy.Spec {
	if s, ok := strategy.Lookup(c.strategy); ok {
		return s
	}
	all := strategy.Catalog()
	return all[pick(c.strategy, len(all))]
}

// newStrategy builds the strategy with the case's knobs and wrappers.
func (c equivCase) newStrategy(t *testing.T, spec strategy.Spec, prog *asm.Program) device.Strategy {
	t.Helper()
	margin := float64(c.margin) / 1000
	s := spec.New()
	switch s := s.(type) {
	case *strategy.Timer:
		s.TauB = uint64(c.window)
	case *strategy.Speculative:
		s.TauB, s.CheckPeriod, s.Margin = uint64(c.window), uint64(c.check), margin
	case *strategy.Hibernus:
		s.CheckPeriod, s.Margin = uint64(c.check), margin
	case *strategy.Mementos:
		s.MinGapCycles, s.Margin = uint64(c.window), margin
	case *strategy.MixedVolatility:
		s.WatchdogCycles = uint64(c.window)
	case *strategy.Alpaca:
		s.Coalesce = int(c.window)
		if c.commits {
			s.RecordCommits()
		}
	case *strategy.Clank:
		s.WatchdogCycles = uint64(c.window)
		s.ReadFirstEntries, s.WriteFirstEntries = int(c.buf), int(c.buf)
	case *strategy.Ratchet:
		s.MaxRegion = uint64(c.window)
	case *strategy.NVP:
		s.Margin = margin
	case *strategy.CacheVolatile:
		s.WatchdogCycles = uint64(c.window)
	}
	out := s
	if c.sense {
		out = strategy.NewSenseCommit(s)
	}
	if c.meter {
		out = strategy.NewRegionMeter(out, c.regionTable(t, prog, s))
	}
	return out
}

// regionTable is the WCEC table RegionMeter meters against, in the
// region semantics the strategy declares (checkpoint sites when it
// declares none).
func (c equivCase) regionTable(t *testing.T, prog *asm.Program, s device.Strategy) *analyze.WCECTable {
	t.Helper()
	mode := analyze.WCECCheckpoint
	if ro, ok := s.(device.RegionObserver); ok && ro.Regions() == device.RegionTaskBoundaries {
		mode = analyze.WCECTask
	}
	pm := energy.MSP430Power()
	tbl, err := analyze.WCEC(prog, analyze.WCECOptions{
		Mode: mode, Power: pm,
		BudgetJ: c.periodEnergy() * pm.EnergyPerCycle(energy.ClassALU),
	})
	if err != nil {
		t.Fatalf("WCEC: %v", err)
	}
	return tbl
}

// periodEnergy decodes the period energy in ALU cycles.
func (c equivCase) periodEnergy() float64 {
	if c.energy <= fuzzLiteralEnergy {
		return math.Max(float64(c.energy), fuzzMinEnergy)
	}
	frac := float64(c.energy-fuzzLiteralEnergy-1) / float64(math.MaxUint32-fuzzLiteralEnergy-1)
	return fuzzMinEnergy * math.Pow(fuzzLiteralEnergy/fuzzMinEnergy, frac)
}

// caseRun is one engine's run of a case, with its recorders.
type caseRun struct {
	d      *device.Device
	strat  device.Strategy
	log    *device.ObsLog
	events *obsv.SliceSink
}

// newRun builds a fresh device for one engine: fresh strategy,
// harvester, injector and recorders.
func (c equivCase) newRun(t *testing.T, prog *asm.Program, spec strategy.Spec, eng device.Engine) caseRun {
	t.Helper()
	cfg := benchEquivCfg(prog, c.periodEnergy())
	cfg.Engine = eng
	if c.maxPeriods != 0 {
		cfg.MaxPeriods = int(c.maxPeriods)
	}
	if c.maxCycles != 0 {
		cfg.MaxCycles = uint64(c.maxCycles)
	}
	switch k := c.supply % 5; {
	case k >= 1 && k <= 3:
		h, err := energy.NewHarvester(trace.Generate(trace.Kinds()[k-1], 20, 1e-3, c.seed), 3000, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Harvester = h
	case k == 4:
		inj, err := faults.New(faults.Plan{
			Seed:                c.seed,
			RandomCutMeanCycles: 30_000,
			CutCycles:           []uint64{50_000, 123_456},
			TornWriteProb:       0.01,
			BitFlipRate:         1e-4,
			StaleRestoreProb:    0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
	}
	r := caseRun{strat: c.newStrategy(t, spec, prog)}
	if c.record {
		r.log = &device.ObsLog{}
		cfg.Record = r.log
	}
	if c.events {
		r.events = &obsv.SliceSink{}
		cfg.Observe = r.events
	}
	d, err := device.New(cfg, r.strat)
	if err != nil {
		t.Fatal(err)
	}
	r.d = d
	return r
}

// run checks the case on both engines: Results through runEngines, the
// meter's region readings when it has one, and the observation logs and
// lifecycle events when the case records them.
func (c equivCase) run(t *testing.T) {
	t.Helper()
	spec := c.spec()
	prog := c.program(t, spec.Seg)
	runs := map[device.Engine]caseRun{}
	runEngines(t, func(eng device.Engine) (*device.Device, device.Strategy) {
		r := c.newRun(t, prog, spec, eng)
		runs[eng] = r
		return r.d, r.strat
	})
	ref, bat := runs[device.EngineReference], runs[device.EngineBatched]
	if c.meter {
		mRef, mBat := ref.strat.(*strategy.RegionMeter).Observed(), bat.strat.(*strategy.RegionMeter).Observed()
		if !reflect.DeepEqual(mRef, mBat) {
			t.Fatalf("region meter readings differ:\nreference: %v\nbatched:   %v", mRef, mBat)
		}
	}
	if c.record && !reflect.DeepEqual(ref.log, bat.log) {
		t.Fatalf("observation logs differ: boots %d/%d senses %d/%d commits %d/%d",
			len(ref.log.Boots), len(bat.log.Boots), len(ref.log.Senses), len(bat.log.Senses),
			len(ref.log.Commits), len(bat.log.Commits))
	}
	if c.events {
		sameEvents(t, filterDiagnostics(ref.events.Events), filterDiagnostics(bat.events.Events))
	}
}

// sleepChunks runs the case on the batched engine alone and returns how
// many chunks its fused sleep settled on the clamped and general paths.
func (c equivCase) sleepChunks(t *testing.T) (clamped, general uint64) {
	t.Helper()
	spec := c.spec()
	r := c.newRun(t, c.program(t, spec.Seg), spec, device.EngineBatched)
	if _, err := r.d.Run(); err != nil {
		t.Fatal(err)
	}
	return r.d.SleepChunks()
}

// fastForwarded runs the case on the batched engine alone, traced, and
// returns how many periods it replayed instead of simulating.
func (c equivCase) fastForwarded(t *testing.T) uint64 {
	t.Helper()
	spec := c.spec()
	c.events = true
	r := c.newRun(t, c.program(t, spec.Seg), spec, device.EngineBatched)
	if _, err := r.d.Run(); err != nil {
		t.Fatal(err)
	}
	return fastForwardedPeriods(r.events.Events)
}
