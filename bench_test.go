// Package ehmodel's root benchmark suite regenerates every table and
// figure of the paper's evaluation (see DESIGN.md's per-experiment
// index). Each benchmark reports the figure's headline scalar via
// b.ReportMetric so `go test -bench=. -benchmem` doubles as a
// reproduction run:
//
//	BenchmarkFig5   → fraction of measured points within model bounds
//	BenchmarkFig6   → geomean |prediction error|
//	BenchmarkFig7   → Pearson correlation of τ_B-similarity vs progress
//	BenchmarkFig10  → mean α_B (bytes/cycle)
//	...
package ehmodel

import (
	"context"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/core"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/experiments"
	"ehmodel/internal/mem"
	"ehmodel/internal/stats"
	"ehmodel/internal/strategy"
	"ehmodel/internal/workload"
)

// --- model microbenchmarks (Table I machinery) ---

func BenchmarkProgressEq8(b *testing.B) {
	p := core.DefaultParams()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += p.Progress()
	}
	_ = sink
}

func BenchmarkTauBOptEq9(b *testing.B) {
	p := core.DefaultParams()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += p.TauBOpt()
	}
	_ = sink
}

func BenchmarkTauBOptNumeric(b *testing.B) {
	p := core.DefaultParams()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += p.TauBOptNumeric(core.DeadAverage, 1e-3, 200)
	}
	_ = sink
}

func BenchmarkBreakEvenEq11(b *testing.B) {
	p := core.DefaultParams()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += p.TauBBreakEven()
	}
	_ = sink
}

// --- analytic figures ---

func BenchmarkFig2(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig2()
	}
	peak := experiments.Point{}
	for _, p := range f.Series[0].Points {
		if p.Y > peak.Y {
			peak = p
		}
	}
	b.ReportMetric(peak.Y, "peak_p")
}

func BenchmarkFig3(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig3()
	}
	b.ReportMetric(f.Series[0].Points[0].Y, "p_at_min_tauB")
}

func BenchmarkFig4(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig4()
	}
	n := len(f.Series[0].Points)
	gap := f.Series[0].Points[n-1].Y - f.Series[2].Points[n-1].Y
	b.ReportMetric(gap, "max_variability_gap")
}

func BenchmarkFig11(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig11()
	}
	b.ReportMetric(float64(len(f.Series)), "curves")
}

// --- simulation-driven validations ---

func BenchmarkFig5(b *testing.B) {
	var pts []experiments.Fig5Point
	for i := 0; i < b.N; i++ {
		var err error
		_, pts, err = experiments.Fig5(context.Background(), experiments.QuickFig5Config())
		if err != nil {
			b.Fatal(err)
		}
	}
	within := 0
	for _, p := range pts {
		if p.Within {
			within++
		}
	}
	b.ReportMetric(float64(within)/float64(len(pts)), "within_bounds_frac")
}

func BenchmarkFig6(b *testing.B) {
	var pts []experiments.Fig6Point
	for i := 0; i < b.N; i++ {
		var err error
		_, pts, err = experiments.Fig6(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	var errs []float64
	for _, p := range pts {
		errs = append(errs, p.RelErr)
	}
	b.ReportMetric(stats.GeoMean(errs), "geomean_err")
}

func BenchmarkFig7(b *testing.B) {
	var pts []experiments.Fig7Point
	for i := 0; i < b.N; i++ {
		var err error
		_, pts, err = experiments.Fig7(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	var xs, ys []float64
	for _, p := range pts {
		xs = append(xs, p.Similarity)
		ys = append(ys, p.Measured)
	}
	if r, err := stats.Pearson(xs, ys); err == nil {
		b.ReportMetric(r, "pearson_r")
	}
}

func BenchmarkFig8And9(b *testing.B) {
	cfg := experiments.QuickCharacterizationConfig()
	var f8 *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f8, _, _, err = experiments.Fig8And9(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f8.Series[0].Points[0].Y, "lzfx_tauB_cycles")
}

func BenchmarkFig10(b *testing.B) {
	cfg := experiments.QuickCharacterizationConfig()
	var runsMean float64
	for i := 0; i < b.N; i++ {
		_, runs, err := experiments.Fig10(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range runs {
			sum += r.AlphaB.Mean
		}
		runsMean = sum / float64(len(runs))
	}
	b.ReportMetric(runsMean, "mean_alphaB_B_per_cycle")
}

// --- case studies ---

func BenchmarkCaseStoreMajor(b *testing.B) {
	var pts []experiments.StoreMajorPoint
	for i := 0; i < b.N; i++ {
		var err error
		_, pts, err = experiments.CaseStoreMajor()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].MeasuredRatio, "sttram_lm_sm_ratio")
}

func BenchmarkCaseStoreMajorDevice(b *testing.B) {
	var pts []experiments.StoreMajorDevicePoint
	for i := 0; i < b.N; i++ {
		var err error
		_, pts, err = experiments.CaseStoreMajorDevice(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	// store-major over load-major progress at the slow-write corner
	var lm, sm float64
	for _, p := range pts {
		if p.SigmaRatio == 0.1 {
			if p.Order == workload.LoadMajor {
				lm = p.Progress
			} else {
				sm = p.Progress
			}
		}
	}
	b.ReportMetric(sm/lm, "sm_over_lm_slow_writes")
}

func BenchmarkCaseCircularBuffer(b *testing.B) {
	var pts []experiments.CircularPoint
	var plan core.CircularBufferPlan
	for i := 0; i < b.N; i++ {
		var err error
		_, pts, plan, err = experiments.CaseCircularBuffer(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	best := pts[0]
	for _, p := range pts {
		if p.Progress > best.Progress {
			best = p
		}
	}
	b.ReportMetric(float64(best.BufN), "best_N")
	b.ReportMetric(float64(plan.N), "planned_N")
}

func BenchmarkCaseBitPrecision(b *testing.B) {
	var r experiments.BitPrecisionResult
	for i := 0; i < b.N; i++ {
		r = experiments.CaseBitPrecision()
	}
	b.ReportMetric(r.GainOneBit, "dp_one_bit")
}

// --- ablations (DESIGN.md §6) ---

func BenchmarkAblationClankBuffers(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.AblationClankBuffers(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := f.Series[0].Points
	b.ReportMetric(last[len(last)-1].Y, "susan_tauB_64entries")
}

func BenchmarkAblationClankWatchdog(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.AblationClankWatchdog(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	best := f.Series[0].Points[0]
	for _, p := range f.Series[0].Points {
		if p.Y > best.Y {
			best = p
		}
	}
	b.ReportMetric(best.X, "best_watchdog_cycles")
}

func BenchmarkAblationHibernusMargin(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.AblationHibernusMargin(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	best := f.Series[0].Points[0]
	for _, p := range f.Series[0].Points {
		if p.Y > best.Y {
			best = p
		}
	}
	b.ReportMetric(best.X, "best_margin")
}

func BenchmarkAblationMementosGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMementosGap(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVariabilityStudy(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.VariabilityStudy(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	lo, hi := 2.0, -1.0
	for _, p := range f.Series[0].Points {
		if p.Y < lo {
			lo = p.Y
		}
		if p.Y > hi {
			hi = p.Y
		}
	}
	b.ReportMetric(hi-lo, "per_period_p_spread")
}

// --- design-space explorations ---

func BenchmarkCapacitorSweep(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.CapacitorSweep(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	pts := f.Series[0].Points
	b.ReportMetric(pts[len(pts)-1].Y-pts[0].Y, "p_gain_from_buffer")
}

func BenchmarkNVMComparison(b *testing.B) {
	var pts []experiments.NVMComparisonPoint
	for i := 0; i < b.N; i++ {
		var err error
		_, pts, err = experiments.NVMComparison(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Measured/pts[2].Measured, "fram_over_flash")
}

func BenchmarkTailLatencyStudy(b *testing.B) {
	var pts []experiments.TailPoint
	for i := 0; i < b.N; i++ {
		var err error
		_, pts, err = experiments.TailLatencyStudy(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	best := pts[0]
	for _, p := range pts {
		if p.P5 > best.P5 {
			best = p
		}
	}
	b.ReportMetric(best.TauB, "tail_opt_tauB")
}

func BenchmarkChargingStudy(b *testing.B) {
	var pts []experiments.ChargingPoint
	for i := 0; i < b.N; i++ {
		var err error
		_, pts, err = experiments.ChargingStudy(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[len(pts)-1].Measured, "p_at_max_charging")
}

func BenchmarkBreakEvenStudy(b *testing.B) {
	var tauBE float64
	for i := 0; i < b.N; i++ {
		var err error
		_, _, tauBE, err = experiments.BreakEvenStudy(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tauBE, "eq11_tauB_be_cycles")
}

func BenchmarkBreakdownComparison(b *testing.B) {
	var rows []experiments.BreakdownRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.BreakdownComparison(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Progress, "hibernus_progress_frac")
}

func BenchmarkTable2(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "benchmarks")
}

// --- simulator throughput (substrate performance) ---

func benchmarkSimulator(b *testing.B, bench string, seg asm.Segment, s func() device.Strategy) {
	w, ok := workload.Get(bench)
	if !ok {
		b.Fatalf("workload %q missing", bench)
	}
	prog, err := w.Build(workload.Options{Seg: seg, Scale: 2})
	if err != nil {
		b.Fatal(err)
	}
	pm := energy.MSP430Power()
	e := 20000 * pm.EnergyPerCycle(energy.ClassALU)
	capC, vmax, von, voff := device.FixedSupplyConfig(e)
	var cycles uint64
	for i := 0; i < b.N; i++ {
		d, err := device.New(device.Config{
			Prog: prog, Power: pm,
			CapC: capC, CapVMax: vmax, VOn: von, VOff: voff,
			MaxPeriods: 100000, MaxCycles: 1 << 62,
		}, s())
		if err != nil {
			b.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("incomplete")
		}
		cycles = res.TotalCycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

func BenchmarkSimulatorClankLzfx(b *testing.B) {
	benchmarkSimulator(b, "lzfx", asm.FRAM, func() device.Strategy { return strategy.NewClank() })
}

func BenchmarkSimulatorDinoDS(b *testing.B) {
	benchmarkSimulator(b, "ds", asm.SRAM, func() device.Strategy { return strategy.NewDINO() })
}

func BenchmarkSimulatorHibernusCRC(b *testing.B) {
	benchmarkSimulator(b, "crc", asm.SRAM, func() device.Strategy { return strategy.NewHibernus() })
}

func BenchmarkContinuousExecution(b *testing.B) {
	w, _ := workload.Get("susan")
	prog, err := w.Build(workload.Options{Seg: asm.SRAM, Scale: 4})
	if err != nil {
		b.Fatal(err)
	}
	ms, err := mem.NewSystem(mem.DefaultSRAMSize, mem.DefaultFRAMSize)
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		p, err := workload.ProfileProgram(ms, prog, 100_000_000)
		if err != nil {
			b.Fatal(err)
		}
		cycles = p.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()*float64(b.N), "sim_cycles_per_s")
}
