package device_test

import (
	"encoding/json"
	"os"
	"testing"

	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/isa"
	"ehmodel/internal/mem"
	"ehmodel/internal/strategy"
	"ehmodel/internal/workload"
)

// The engine macro benchmark: the §V-A counter workload under the
// timer strategy on a bench supply — the configuration the paper's
// Fig. 5 validation sweeps hammer thousands of times, and the
// configuration the batched engine's ≥3× speedup target is measured
// on. One benchmark op is one complete intermittent run.

// Macro parameters: a generously sized bench capacitor (600k cycles of
// ALU energy per period, a handful of power cycles per run) under a
// wide watchdog window (τ_B 50k). This is the regime the engine
// refactor targets — long event-free stretches — while the brown-outs
// keep the charge/boot/restore path in the measurement.
const (
	macroPeriodCycles = 600_000
	macroTauB         = 50_000
)

func benchmarkEngine(b *testing.B, eng device.Engine) {
	w, ok := workload.Get("counter")
	if !ok {
		b.Fatal("counter workload missing")
	}
	prog, err := w.Build(workload.Options{Scale: 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := benchEquivCfg(prog, macroPeriodCycles)
		cfg.Engine = eng
		d, err := device.New(cfg, strategy.NewTimer(macroTauB, 0.1))
		if err != nil {
			b.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("macro run did not complete")
		}
		cycles += res.TotalCycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

func BenchmarkEngineReference(b *testing.B) { benchmarkEngine(b, device.EngineReference) }
func BenchmarkEngineBatched(b *testing.B)   { benchmarkEngine(b, device.EngineBatched) }

// benchmarkStepN is the interpreter micro-benchmark behind the
// zero-allocation row of BENCH_core.json: one op is one cpu.StepN call
// over a 16 Ki-cycle budget of the counter hot loop into a reused
// sink. Its allocs/op must stay at zero — the interpreter's hot-loop
// contract (pinned hard by cpu.TestStepNZeroAllocs).
func benchmarkStepN(b *testing.B) {
	w, ok := workload.Get("counter")
	if !ok {
		b.Fatal("counter workload missing")
	}
	prog, err := w.Build(workload.Options{Scale: 1 << 16}) // effectively endless; the budget bounds work
	if err != nil {
		b.Fatal(err)
	}
	m, err := mem.NewSystem(mem.DefaultSRAMSize, mem.DefaultFRAMSize)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.WriteSRAMImage(prog.SRAMImage); err != nil {
		b.Fatal(err)
	}
	if err := m.WriteFRAMImage(prog.FRAMImage); err != nil {
		b.Fatal(err)
	}
	c := &cpu.Core{}
	sink := &cpu.BatchSink{Recs: make([]cpu.StepRec, 0, 1<<14)}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		sink.Recs = sink.Recs[:0]
		bt, err := c.StepN(prog.Code, m, 1<<14, isa.SysMask(0), sink)
		if err != nil {
			b.Fatal(err)
		}
		cycles += bt.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

// benchRecord is one row of BENCH_core.json.
type benchRecord struct {
	Name            string  `json:"name"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec,omitempty"`
}

// TestWriteBenchJSON runs the engine benchmarks programmatically and
// writes BENCH_core.json for CI artifacts and the committed baseline.
// It is gated behind EHSIM_BENCH_OUT so ordinary test runs never spend
// benchmark time; `make bench` sets the variable.
func TestWriteBenchJSON(t *testing.T) {
	out := os.Getenv("EHSIM_BENCH_OUT")
	if out == "" {
		t.Skip("set EHSIM_BENCH_OUT=path to write the benchmark JSON")
	}

	run := func(name string, fn func(*testing.B)) benchRecord {
		r := testing.Benchmark(fn)
		rec := benchRecord{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if v, ok := r.Extra["simcycles/s"]; ok {
			rec.SimCyclesPerSec = v
		}
		return rec
	}

	ref := run("engine-macro/counter-bench/reference", BenchmarkEngineReference)
	bat := run("engine-macro/counter-bench/batched", BenchmarkEngineBatched)
	stepn := run("micro/cpu-stepn-16k", benchmarkStepN)
	if stepn.AllocsPerOp != 0 {
		t.Errorf("cpu.StepN allocs/op = %d, want 0", stepn.AllocsPerOp)
	}

	doc := struct {
		Description string        `json:"description"`
		Command     string        `json:"command"`
		Benchmarks  []benchRecord `json:"benchmarks"`
		Speedup     float64       `json:"speedup_batched_over_reference"`
	}{
		Description: "Execution-engine benchmarks. engine-macro: one op is a complete intermittent run of the counter workload (Scale 20) under the timer strategy on a bench supply. micro/cpu-stepn-16k: one op is one cpu.StepN call over a 16Ki-cycle budget (allocs_per_op must be 0). simcycles/s is simulated cycles retired per wall-clock second.",
		Command:     "make bench",
		Benchmarks:  []benchRecord{ref, bat, stepn},
	}
	if ref.SimCyclesPerSec > 0 {
		doc.Speedup = bat.SimCyclesPerSec / ref.SimCyclesPerSec
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("reference: %.0f simcycles/s, batched: %.0f simcycles/s, speedup %.2fx -> %s",
		ref.SimCyclesPerSec, bat.SimCyclesPerSec, doc.Speedup, out)
}
