package main

// Every call ehbench makes into the repository's layers lives in this
// file, so a change to a layer's API touches the benchmark in one
// place. The rest of the program sees only the small types below.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"ehmodel/internal/asm"
	"ehmodel/internal/core"
	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/experiments"
	"ehmodel/internal/faults"
	"ehmodel/internal/isa"
	"ehmodel/internal/mem"
	"ehmodel/internal/obsv"
	"ehmodel/internal/runner"
	"ehmodel/internal/strategy"
	"ehmodel/internal/sweep"
	"ehmodel/internal/trace"
	ehworkload "ehmodel/internal/workload"
)

// ---- experiments + sweep: figure passes ----

// storeOps is the timing decorator around the real sweep.Store: it
// counts and times every Get and Put the executor makes, and the encoded
// bytes each Put stores.
type storeOps struct {
	inner    sweep.Store
	getUS    *samples
	putUS    *samples
	putBytes *samples
}

func (s *storeOps) Get(k sweep.Key) ([]byte, bool) {
	t := time.Now()
	b, ok := s.inner.Get(k)
	s.getUS.add(sinceUS(t))
	return b, ok
}

func (s *storeOps) Put(k sweep.Key, enc []byte) error {
	t := time.Now()
	err := s.inner.Put(k, enc)
	s.putUS.add(sinceUS(t))
	s.putBytes.add(float64(len(enc)))
	return err
}

// figExec is one sweep executor installed as the process default, over a
// memory store (storeDir == "") or a memory tier over an on-disk CAS.
type figExec struct {
	exec *sweep.Executor
	ops  *storeOps // nil unless timed
}

// newFigExec builds a fresh executor and installs it with sweep.SetDefault.
// timed wraps its store in the storeOps decorator.
func newFigExec(storeDir string, timed bool) (*figExec, error) {
	var st sweep.Store
	if storeDir == "" {
		st = sweep.NewMemStore(0)
	} else {
		t, err := sweep.NewTiered(storeDir, 0)
		if err != nil {
			return nil, err
		}
		st = t
	}
	fe := &figExec{}
	if timed {
		fe.ops = &storeOps{inner: st, getUS: &samples{}, putUS: &samples{}, putBytes: &samples{}}
		st = fe.ops
	}
	fe.exec = sweep.NewExecutor(st)
	sweep.SetDefault(fe.exec)
	return fe, nil
}

// execStats is a snapshot of the executor's cell accounting.
type execStats struct{ Hits, Misses, Bypass, Dedup, StoreErrors uint64 }

func (s execStats) total() uint64 { return s.Hits + s.Misses + s.Bypass + s.Dedup }

func (s execStats) sub(o execStats) execStats {
	return execStats{s.Hits - o.Hits, s.Misses - o.Misses, s.Bypass - o.Bypass, s.Dedup - o.Dedup, s.StoreErrors - o.StoreErrors}
}

func (fe *figExec) stats() execStats {
	st := fe.exec.Stats()
	return execStats{st.Hits, st.Misses, st.Bypass, st.Dedup, st.StoreErrors}
}

// figureIDs is the figure catalog.
func figureIDs() []string { return experiments.FigureIDs() }

// figPass is the outcome of one GenerateFigures call rendered to CSV.
type figPass struct {
	csvNS int64 // time spent rendering the CSVs
	// csv holds the SHA-256 of each figure's CSV, keyed by figure ID.
	csv      map[string]string
	failures []string
}

// runFigures calls GenerateFigures(which, quick) on the installed
// executor with GOMAXPROCS workers and streams every figure's WriteCSV
// into SHA-256. When ctx carries a trace, the benchmark's own spans
// bracket the generation and each CSV render.
func runFigures(ctx context.Context, which string) figPass {
	var p figPass
	gctx, sp := obsv.StartSpan(ctx, "generate")
	figs, fails := experiments.GenerateFigures(gctx, which, true, runner.Options{Workers: workers()})
	sp.Finish()
	for _, f := range fails {
		p.failures = append(p.failures, fmt.Sprintf("%s: %v", f.ID, f.Err))
	}
	p.csv = make(map[string]string, len(figs))
	h := sha256.New()
	t := time.Now()
	for _, f := range figs {
		st := time.Now()
		h.Reset()
		if err := f.WriteCSV(h); err != nil {
			p.failures = append(p.failures, fmt.Sprintf("%s: csv: %v", f.ID, err))
		}
		obsv.AddSpan(ctx, "render.csv", st, time.Now(), obsv.Attr{Key: "figure", Val: f.ID})
		p.csv[f.ID] = hex.EncodeToString(h.Sum(nil))
	}
	p.csvNS = time.Since(t).Nanoseconds()
	return p
}

// figuresCSVDigests decodes an ehserve /v1/figure body and hashes each
// figure's CSV the way runFigures does, so served figures can be checked
// against the same golden digests.
func figuresCSVDigests(body []byte) (map[string]string, error) {
	var resp struct {
		Figures  []*experiments.Figure `json:"figures"`
		Failures []json.RawMessage     `json:"failures"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Failures) > 0 {
		return nil, fmt.Errorf("%d figure failures in reply", len(resp.Failures))
	}
	out := make(map[string]string, len(resp.Figures))
	for _, f := range resp.Figures {
		h := sha256.New()
		if err := f.WriteCSV(h); err != nil {
			return nil, err
		}
		out[f.ID] = hex.EncodeToString(h.Sum(nil))
	}
	return out, nil
}

// ---- obsv: traces, spans, provenance ----

// tracer is an in-memory trace the benchmark attaches to a context.
type tracer struct{ tr *obsv.Trace }

// newTracer starts a trace large enough to keep every span of a pass.
func newTracer() *tracer { return &tracer{tr: obsv.NewTrace(obsv.NewTraceID(), 1<<20)} }

func (t *tracer) attach(ctx context.Context) context.Context {
	return obsv.ContextWithTrace(ctx, t.tr)
}

// startSpan opens a benchmark-side span; the returned func closes it.
func startSpan(ctx context.Context, name string) (context.Context, func()) {
	ctx, sp := obsv.StartSpan(ctx, name)
	return ctx, sp.Finish
}

// addSpan records an already-timed benchmark-side span.
func addSpan(ctx context.Context, name string, start, end time.Time) {
	obsv.AddSpan(ctx, name, start, end)
}

// span is the benchmark's flat view of one recorded span.
type span struct {
	ID, Parent uint64
	Name       string
	Start, End int64 // ns since the trace start
	Attrs      map[string]string
}

// spans returns the recorded spans.
func (t *tracer) spans() []span {
	td := t.tr.Snapshot()
	out := make([]span, 0, len(td.Spans))
	for _, s := range td.Spans {
		sp := span{
			ID: uint64(s.ID), Parent: uint64(s.Parent), Name: s.Name,
			Start: s.Start.Sub(td.Start).Nanoseconds(),
			End:   s.End.Sub(td.Start).Nanoseconds(),
		}
		if len(s.Attrs) > 0 {
			sp.Attrs = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				sp.Attrs[a.Key] = a.Val
			}
		}
		out = append(out, sp)
	}
	return out
}

// writeTree writes the span tree JSON (the ehfigs -trace-spans format).
func (t *tracer) writeTree(w io.Writer) error { return t.tr.Snapshot().WriteTree(w) }

// provLog collects per-cell provenance records (worker slot, wall time).
type provLog struct{ l *sweep.ProvLog }

func newProvLog() *provLog { return &provLog{l: sweep.NewProvLog(1 << 20)} }

func (p *provLog) attach(ctx context.Context) context.Context { return sweep.WithProvLog(ctx, p.l) }

// cellRec is one provenance record: the worker slot that resolved the
// cell and its wall time there.
type cellRec struct {
	Worker int
	WallUS int64
}

func (p *provLog) cells() []cellRec {
	cs := p.l.Cells()
	out := make([]cellRec, len(cs))
	for i, c := range cs {
		out[i] = cellRec{Worker: c.Worker, WallUS: c.WallUS}
	}
	return out
}

// parseChromeSpans decodes an ehserve /v1/trace/{id}?format=chrome
// document into spans (durations keep sub-microsecond precision).
func parseChromeSpans(body []byte) ([]span, error) {
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			TS   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	out := make([]span, 0, len(doc.TraceEvents))
	for _, ev := range doc.TraceEvents {
		var ids struct {
			ID     uint64 `json:"span_id"`
			Parent uint64 `json:"parent"`
		}
		if err := json.Unmarshal(ev.Args, &ids); err != nil {
			return nil, err
		}
		start := int64(ev.TS * 1e3)
		out = append(out, span{ID: ids.ID, Parent: ids.Parent, Name: ev.Name, Start: start, End: start + int64(ev.Dur*1e3)})
	}
	return out, nil
}

// ---- device + cpu: the simulator matrix ----

// simClass names the three settle paths the matrix isolates.
var simClasses = []string{"bench", "harvest", "fault"}

// simCell is one fixed simulation of the sim-matrix workloads. make
// returns a fresh config and strategy (fresh harvester, fresh injector)
// for each run, so every run of a cell starts from identical state.
type simCell struct {
	Label string
	make  func(eng device.Engine) (device.Config, device.Strategy, error)
}

// simRun is the outcome of one device.New + Device.Run.
type simRun struct {
	NewNS, RunNS         int64
	NewAllocs, RunAllocs uint64
	Cycles               uint64 // Result.TotalCycles
	Periods, Backups     int
	Completed            bool
	Digest               string // SHA-256 of the JSON-encoded Result
	Err                  error
}

// simStrategies, simWorkloads and the class constants are the matrix's
// inputs; the supply classes are documented in bench/README.md.
var (
	simStrategies = []string{"timer", "hibernus", "mementos", "dino", "clank", "alpaca"}
	simWorkloads  = []string{"crc", "ds", "sha"}
)

const (
	fixedPeriodCycles   = 20_000  // bench and fault classes: energy per period, in ALU cycles
	harvestCapCycles    = 6_000   // harvest class: capacitor size, in ALU cycles
	macroPeriodCycles   = 600_000 // the BENCH_core engine-macro cell
	macroTauB           = 50_000
	macroScale          = 20
	harvestTraceSeconds = 20
	harvestTraceStep    = 1e-3
)

// The two execution engines: batched is the default, reference the
// per-instruction trust anchor it must match bit for bit.
var (
	engineBatched   = device.EngineBatched
	engineReference = device.EngineReference
)

// fixedSupply is the bench-supply config: energy per period expressed
// in ALU cycles, instantly recharged.
func fixedSupply(prog *asm.Program, cyclesOfEnergy float64) device.Config {
	pm := energy.MSP430Power()
	capC, vmax, von, voff := device.FixedSupplyConfig(cyclesOfEnergy * pm.EnergyPerCycle(energy.ClassALU))
	return device.Config{
		Prog: prog, Power: pm,
		CapC: capC, CapVMax: vmax, VOn: von, VOff: voff,
		MaxPeriods: 20000, MaxCycles: 2_000_000_000,
	}
}

// buildSimMatrix assembles the cells of one supply class. Traces and
// fault plans derive from seed; scale multiplies every workload's size.
func buildSimMatrix(class string, seed int64, scale int) ([]simCell, error) {
	var cells []simCell
	if class == "bench" {
		w, _ := ehworkload.Get("counter")
		prog, err := w.Build(ehworkload.Options{Scale: macroScale})
		if err != nil {
			return nil, err
		}
		cells = append(cells, simCell{Label: "bench/timer/counter-macro",
			make: func(eng device.Engine) (device.Config, device.Strategy, error) {
				cfg := fixedSupply(prog, macroPeriodCycles)
				cfg.Engine = eng
				return cfg, strategy.NewTimer(macroTauB, 0.1), nil
			}})
	}
	var traces []*trace.Trace
	if class == "harvest" {
		for _, k := range trace.Kinds() {
			traces = append(traces, trace.Generate(k, harvestTraceSeconds, harvestTraceStep, seed))
		}
	}
	for _, sn := range simStrategies {
		spec, ok := strategy.Lookup(sn)
		if !ok {
			return nil, fmt.Errorf("strategy %q missing", sn)
		}
		for _, wn := range simWorkloads {
			w, ok := ehworkload.Get(wn)
			if !ok {
				return nil, fmt.Errorf("workload %q missing", wn)
			}
			prog, err := w.Build(ehworkload.Options{Seg: spec.Seg, Scale: scale})
			if err != nil {
				return nil, err
			}
			label := class + "/" + sn + "/" + wn
			switch class {
			case "bench":
				cells = append(cells, simCell{Label: label,
					make: func(eng device.Engine) (device.Config, device.Strategy, error) {
						cfg := fixedSupply(prog, fixedPeriodCycles)
						cfg.Engine = eng
						return cfg, spec.New(), nil
					}})
			case "harvest":
				for _, tr := range traces {
					cells = append(cells, simCell{Label: label + "/" + tr.Name,
						make: func(eng device.Engine) (device.Config, device.Strategy, error) {
							h, err := energy.NewHarvester(tr, 3000, 0.7)
							if err != nil {
								return device.Config{}, nil, err
							}
							cfg := fixedSupply(prog, harvestCapCycles)
							cfg.Engine = eng
							cfg.Harvester = h
							return cfg, spec.New(), nil
						}})
				}
			case "fault":
				plan := faults.Plan{Seed: seed, RandomCutMeanCycles: 30_000, TornWriteProb: 0.01, BitFlipRate: 1e-4}
				cells = append(cells, simCell{Label: label,
					make: func(eng device.Engine) (device.Config, device.Strategy, error) {
						inj, err := faults.New(plan)
						if err != nil {
							return device.Config{}, nil, err
						}
						cfg := fixedSupply(prog, fixedPeriodCycles)
						cfg.Engine = eng
						cfg.Faults = inj
						return cfg, spec.New(), nil
					}})
			default:
				return nil, fmt.Errorf("unknown supply class %q", class)
			}
		}
	}
	return cells, nil
}

// runSim builds a device for the cell and runs it, timing (and, when
// countAllocs, counting the allocations of) device.New and Device.Run
// separately. With a trace in ctx both calls get benchmark-side spans.
func runSim(ctx context.Context, c simCell, eng device.Engine, countAllocs bool) simRun {
	var r simRun
	cfg, strat, err := c.make(eng)
	if err != nil {
		r.Err = err
		return r
	}
	var m0, m1, m2 runtime.MemStats
	if countAllocs {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	d, err := device.New(cfg, strat)
	t1 := time.Now()
	if countAllocs {
		runtime.ReadMemStats(&m1)
	}
	addSpan(ctx, "device.New", t0, t1)
	if err != nil {
		r.Err = err
		return r
	}
	res, err := d.Run()
	t2 := time.Now()
	if countAllocs {
		runtime.ReadMemStats(&m2)
		r.NewAllocs = m1.Mallocs - m0.Mallocs
		r.RunAllocs = m2.Mallocs - m1.Mallocs
	}
	addSpan(ctx, "device.Run", t1, t2)
	r.NewNS, r.RunNS = t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds()
	if err != nil {
		r.Err = err
		return r
	}
	r.Cycles, r.Periods, r.Backups, r.Completed = res.TotalCycles, len(res.Periods), res.Backups(), res.Completed
	b, err := json.Marshal(res)
	if err != nil {
		r.Err = err
		return r
	}
	sum := sha256.Sum256(b)
	r.Digest = hex.EncodeToString(sum[:])
	return r
}

// ---- core: the closed-form model ----

// modelProgress evaluates Eq. 8 at the paper's default parameters with
// τ_B and α_B overridden — what ehserve's /v1/model must answer.
func modelProgress(tauB, alphaB float64) float64 {
	pr := core.DefaultParams()
	pr.TauB, pr.AlphaB = tauB, alphaB
	return pr.Progress()
}

// ---- probes: direct calls into single layers ----

// sink keeps probe results live so the compiler cannot drop the calls.
var sink float64

// probeBatches times batches of fn and returns the median cost per unit:
// each batch calls fn until it has run for at least batchDur, and fn
// returns how many units (cycles, calls) it performed.
func probeBatches(batches int, batchDur time.Duration, fn func() float64) float64 {
	per := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		var units float64
		t := time.Now()
		for time.Since(t) < batchDur {
			units += fn()
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/units)
	}
	return median(per)
}

// cpuCounterLoop assembles the counter workload at a scale that never
// halts within a probe and loads it into a fresh memory system.
func cpuCounterLoop() (*cpu.Core, []isa.Instr, *mem.System, error) {
	w, ok := ehworkload.Get("counter")
	if !ok {
		return nil, nil, nil, fmt.Errorf("counter workload missing")
	}
	prog, err := w.Build(ehworkload.Options{Scale: 1 << 16})
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := mem.NewSystem(8*1024, 256*1024)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := m.WriteSRAMImage(prog.SRAMImage); err != nil {
		return nil, nil, nil, err
	}
	if err := m.WriteFRAMImage(prog.FRAMImage); err != nil {
		return nil, nil, nil, err
	}
	return &cpu.Core{}, prog.Code, m, nil
}

// cpuProbe times the interpreter on the counter hot loop: StepInto one
// instruction at a time with a reused report, and StepN over 16 Ki-cycle
// budgets into a reused sink (whose allocations per call must be 0).
func cpuProbe() (stepIntoNS, stepNNS, stepNAllocs float64, err error) {
	c, code, m, err := cpuCounterLoop()
	if err != nil {
		return 0, 0, 0, err
	}
	var st cpu.Step
	stepIntoNS = probeBatches(5, 40*time.Millisecond, func() float64 {
		var cyc uint64
		for i := 0; i < 4096 && err == nil; i++ {
			err = c.StepInto(code, m, &st)
			cyc += st.Cycles
		}
		return float64(cyc)
	})
	if err != nil || c.Halted {
		return 0, 0, 0, fmt.Errorf("cpu probe: StepInto: halted=%t err=%v", c.Halted, err)
	}
	bs := &cpu.BatchSink{Recs: make([]cpu.StepRec, 0, 1<<14)}
	stepN := func() float64 {
		bs.Recs = bs.Recs[:0]
		b, e := c.StepN(code, m, 1<<14, 0, bs)
		if e != nil {
			err = e
		}
		return float64(b.Cycles)
	}
	stepNNS = probeBatches(5, 40*time.Millisecond, stepN)
	const calls = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		stepN()
	}
	runtime.ReadMemStats(&m1)
	if err != nil || c.Halted {
		return 0, 0, 0, fmt.Errorf("cpu probe: StepN: halted=%t err=%v", c.Halted, err)
	}
	return stepIntoNS, stepNNS, float64(m1.Mallocs-m0.Mallocs) / calls, nil
}

// cellKeyProbe times sweep.CellKey on one bench-supply cell and one
// harvester cell (whose key folds in the trace fingerprint), in µs.
func cellKeyProbe() (benchUS, harvestUS float64, err error) {
	w, _ := ehworkload.Get("crc")
	prog, err := w.Build(ehworkload.Options{})
	if err != nil {
		return 0, 0, err
	}
	benchCfg := fixedSupply(prog, fixedPeriodCycles)
	h, err := energy.NewHarvester(trace.Generate(trace.Spikes, harvestTraceSeconds, harvestTraceStep, 1), 3000, 0.7)
	if err != nil {
		return 0, 0, err
	}
	harvCfg := fixedSupply(prog, harvestCapCycles)
	harvCfg.Harvester = h
	strat := strategy.NewTimer(1000, 0.1)
	key := func(cfg device.Config) func() float64 {
		return func() float64 {
			k, ok := sweep.CellKey(cfg, strat)
			if !ok {
				err = fmt.Errorf("cell key probe: cell is not hashable")
			}
			sink += float64(k[0])
			return 1
		}
	}
	benchUS = probeBatches(5, 20*time.Millisecond, key(benchCfg)) / 1e3
	harvestUS = probeBatches(5, 20*time.Millisecond, key(harvCfg)) / 1e3
	return benchUS, harvestUS, err
}

// coreProbe times one closed-form progress evaluation (ns) and a 500-point
// log-spaced τ_B sweep (µs) at the paper's default parameters.
func coreProbe() (progressNS, sweepUS float64) {
	pr := core.DefaultParams()
	progressNS = probeBatches(5, 20*time.Millisecond, func() float64 {
		for i := 0; i < 1000; i++ {
			pr.TauB = float64(10 + i%7)
			sink += pr.Progress()
		}
		return 1000
	})
	taus := core.LogSpace(1, 1000, 500)
	pr = core.DefaultParams()
	sweepUS = probeBatches(5, 20*time.Millisecond, func() float64 {
		sink += core.ArgmaxP(pr.SweepTauB(taus, core.DeadAverage)).P
		return 1
	}) / 1e3
	return progressNS, sweepUS
}
