package experiments

import (
	"context"
	"fmt"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/strategy"
	"ehmodel/internal/sweep"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// Ablations probe the design choices DESIGN.md calls out: Clank's
// tracking-buffer capacity and watchdog period, Hibernus's threshold
// margin, and Mementos's checkpoint-site gating. Each returns a Figure
// so ehfigs and the bench suite can regenerate them. Every sweep builds
// a list of cells and runs it through the memoizing executor: failed
// points are dropped from the figure with a note, survivors still
// render, and the merged order is the input order so output is
// identical at any worker count and any cache temperature.

// AblationClankBuffers sweeps the read-first/write-first buffer capacity
// (the paper's configuration uses 8+8) on a load-heavy and a
// violation-heavy kernel. Larger buffers eliminate overflow-forced
// checkpoints, stretching τ_B until violations or the watchdog dominate.
func AblationClankBuffers(ctx context.Context) (*Figure, error) {
	fig := &Figure{
		ID:     "ablation-clank-buffers",
		Title:  "Clank tracking-buffer capacity ablation",
		XLabel: "buffer entries (each of read-first/write-first)",
		YLabel: "mean τ_B (cycles)",
		XLog:   true,
	}
	pm := energy.CortexM0Power()
	benches := []string{"susan", "lzfx"}
	capacities := []int{1, 2, 4, 8, 16, 32, 64}
	var cells []sweep.Cell
	for bi := range benches {
		for ci := range capacities {
			entries := capacities[ci]
			cells = append(cells, fixedCell(
				fmt.Sprintf("clank-buffers %s entries=%d", benches[bi], entries),
				pm, 30000,
				benches[bi], workload.Options{Seg: asm.FRAM, Scale: 2},
				func() device.Strategy {
					cl := strategy.NewClank()
					cl.ReadFirstEntries = entries
					cl.WriteFirstEntries = entries
					return cl
				}))
		}
	}
	all, errs := sweep.Run(ctx, cells)
	failed := errs.FailedSet()

	for bi, bench := range benches {
		tau := Series{Label: bench + " τ_B"}
		for ci, entries := range capacities {
			i := bi*len(capacities) + ci
			if failed[i] {
				continue
			}
			tau.Points = append(tau.Points, Point{X: float64(entries), Y: all[i].Result.MeanTauB()})
		}
		fig.Series = append(fig.Series, tau)
		if len(tau.Points) > 0 {
			first, last := tau.Points[0], tau.Points[len(tau.Points)-1]
			fig.AddNote("%s: τ_B %.0f → %.0f cycles from %.0f to %.0f entries (×%.1f)",
				bench, first.Y, last.Y, first.X, last.X, last.Y/first.Y)
		}
	}
	fig.AddNote("lzfx flattens early: per-iteration WAR violations dominate regardless of capacity")
	if len(errs) > 0 {
		fig.AddNote("%s", errs.Summary(len(benches)*len(capacities)))
		return fig, errs
	}
	return fig, nil
}

// AblationClankWatchdog sweeps the watchdog period on an ALU-dominated
// kernel where the watchdog is the only checkpoint source, comparing
// measured progress against the EH model across the sweep.
func AblationClankWatchdog(ctx context.Context) (*Figure, error) {
	fig := &Figure{
		ID:     "ablation-clank-watchdog",
		Title:  "Clank watchdog-period ablation (sha kernel)",
		XLabel: "watchdog period (cycles)",
		YLabel: "progress p",
		XLog:   true,
	}
	pm := energy.CortexM0Power()
	watchdogs := []uint64{500, 1000, 2000, 4000, 8000, 16000}
	var cells []sweep.Cell
	for _, wd := range watchdogs {
		wd := wd
		cells = append(cells, fixedCell(
			fmt.Sprintf("clank-watchdog sha wd=%d cycles", wd),
			pm, 20000,
			// scale ≫ period so every configuration spans many power
			// failures — otherwise dead cycles never occur and rare
			// backups trivially win
			"sha", workload.Options{Seg: asm.FRAM, Scale: 24},
			func() device.Strategy {
				cl := strategy.NewClank()
				cl.WatchdogCycles = wd
				cl.ReadFirstEntries = 4096 // watchdog-only checkpointing
				cl.WriteFirstEntries = 4096
				return cl
			}))
	}
	all, errs := sweep.Run(ctx, cells)
	failed := errs.FailedSet()

	meas := Series{Label: "measured"}
	for i, wd := range watchdogs {
		if failed[i] {
			continue
		}
		meas.Points = append(meas.Points, Point{X: float64(wd), Y: all[i].Result.MeasuredProgress()})
	}
	fig.Series = append(fig.Series, meas)
	if len(meas.Points) > 0 {
		best := meas.Points[0]
		for _, p := range meas.Points {
			if p.Y > best.Y {
				best = p
			}
		}
		fig.AddNote("measured best watchdog ≈ %.0f cycles (p = %.4f)", best.X, best.Y)
	}
	if len(errs) > 0 {
		fig.AddNote("%s", errs.Summary(len(watchdogs)))
		return fig, errs
	}
	return fig, nil
}

// AblationHibernusMargin sweeps the voltage-threshold margin: tight
// margins maximize pre-hibernation work but risk dying mid-backup
// (§IV-B's inconsistent-state hazard, visible as periods whose backup
// failed), while loose margins waste energy idling.
func AblationHibernusMargin(ctx context.Context) (*Figure, error) {
	fig := &Figure{
		ID:     "ablation-hibernus-margin",
		Title:  "Hibernus threshold-margin ablation (crc benchmark)",
		XLabel: "margin (× backup cost)",
		YLabel: "progress p / failed-backup fraction",
	}
	pm := energy.MSP430Power()
	margins := []float64{1.02, 1.1, 1.5, 2, 3, 5, 8}
	var cells []sweep.Cell
	for _, margin := range margins {
		margin := margin
		// tight margins may never complete — dying mid-backup every
		// period is §IV-B's hazard and exactly what this ablation shows,
		// so these cells verify nothing and stop after 500 periods
		cells = append(cells, sweep.Cell{
			Label: fmt.Sprintf("hibernus-margin crc margin=%g", margin),
			Build: func(ctx context.Context) (device.Config, device.Strategy, error) {
				prog, err := workload.Program(ctx, "crc", workload.Options{Seg: asm.SRAM, Scale: 4})
				if err != nil {
					return device.Config{}, nil, err
				}
				h := strategy.NewHibernus()
				h.Margin = margin
				return fixedConfig(prog, pm, 15000, 500), h, nil
			},
		})
	}
	all, errs := sweep.Run(ctx, cells)
	failed := errs.FailedSet()

	prg := Series{Label: "measured p"}
	failedS := Series{Label: "failed-backup fraction"}
	for i, margin := range margins {
		if failed[i] {
			continue
		}
		res := all[i].Result
		fails := 0
		for _, p := range res.Periods {
			if p.BackupCycles > 0 && p.Backups == 0 {
				fails++
			}
		}
		y := res.MeasuredProgress()
		if !res.Completed && res.Backups() == 0 {
			y = 0 // perpetual restart: no committed work at all
		}
		prg.Points = append(prg.Points, Point{X: margin, Y: y})
		failedS.Points = append(failedS.Points, Point{X: margin, Y: float64(fails) / float64(len(res.Periods))})
	}
	fig.Series = append(fig.Series, prg, failedS)
	fig.AddNote("tight margins die mid-backup (§IV-B's inconsistency hazard); loose margins idle energy away")
	if len(errs) > 0 {
		fig.AddNote("%s", errs.Summary(len(margins)))
		return fig, errs
	}
	return fig, nil
}

// AblationMementosGap sweeps the minimum spacing between checkpoint
// commits once below threshold: no gating thrashes on every site; very
// wide gating risks dying between checkpoints.
func AblationMementosGap(ctx context.Context) (*Figure, error) {
	fig := &Figure{
		ID:     "ablation-mementos-gap",
		Title:  "Mementos checkpoint-gating ablation (ds benchmark)",
		XLabel: "minimum gap between checkpoints (cycles)",
		YLabel: "progress p",
		XLog:   true,
	}
	pm := energy.MSP430Power()
	gaps := []uint64{32, 128, 512, 2048, 8192}
	var cells []sweep.Cell
	for _, gap := range gaps {
		gap := gap
		cells = append(cells, fixedCell(
			fmt.Sprintf("mementos-gap ds gap=%d cycles", gap),
			pm, 15000,
			"ds", workload.Options{Seg: asm.SRAM, Scale: 4},
			func() device.Strategy {
				m := strategy.NewMementos()
				m.MinGapCycles = gap
				return m
			}))
	}
	all, errs := sweep.Run(ctx, cells)
	failed := errs.FailedSet()

	s := Series{Label: "measured p"}
	for i, gap := range gaps {
		if failed[i] {
			continue
		}
		s.Points = append(s.Points, Point{X: float64(gap), Y: all[i].Result.MeasuredProgress()})
	}
	fig.Series = append(fig.Series, s)
	if len(errs) > 0 {
		fig.AddNote("%s", errs.Summary(len(gaps)))
		return fig, errs
	}
	return fig, nil
}

// VariabilityStudy measures the per-period progress distribution of a
// fixed-interval system — the empirical counterpart of Fig. 4's
// variability analysis. A bench supply would make every period
// identical (the simulator is deterministic), so the study drives the
// device from a multi-peak harvested trace: in-period charging varies
// with trace phase, shifting where each period dies relative to the
// backup schedule, exactly the supply-side non-determinism §IV-A2
// describes. It is a single cell, not a sweep, but it still runs
// through the memoizing executor so repeated invocations recall the
// stored result. The timer backs up every 4000 cycles, over 40 periods.
func VariabilityStudy(ctx context.Context) (*Figure, error) {
	const (
		tauB    = 4000
		periods = 40
	)
	pm := energy.MSP430Power()
	cells := []sweep.Cell{{
		Label: fmt.Sprintf("variability τ_B=%d periods=%d", tauB, periods),
		Build: func(ctx context.Context) (device.Config, device.Strategy, error) {
			prog, err := workload.Program(ctx, "counter", workload.Options{Seg: asm.SRAM, Scale: 400})
			if err != nil {
				return device.Config{}, nil, err
			}
			tr := trace.Generate(trace.MultiPeak, 10, 1e-3, 99)
			h, err := energy.NewHarvester(tr, 40000, 0.7) // peak power below core draw
			if err != nil {
				return device.Config{}, nil, err
			}
			cfg := fixedConfig(prog, pm, 20000, periods)
			cfg.Harvester = h
			return cfg, strategy.NewTimer(tauB, 0.1), nil
		},
	}}
	all, errs := sweep.Run(ctx, cells)
	if len(errs) > 0 {
		return nil, errs[0].Err
	}
	res := all[0].Result

	fig := &Figure{
		ID:     "variability",
		Title:  fmt.Sprintf("Per-period progress distribution at τ_B=%d (Fig. 4 empirics)", tauB),
		XLabel: "active period",
		YLabel: "progress p",
	}
	samples := Series{Label: "per-period p"}
	for i, p := range res.Periods {
		if res.Completed && i == len(res.Periods)-1 {
			continue
		}
		supply := p.SupplyE + p.HarvestedE
		samples.Points = append(samples.Points, Point{X: float64(i), Y: p.ProgressE / supply})
	}
	fig.Series = append(fig.Series, samples)
	fig.AddNote("periods observed: %d", len(samples.Points))
	return fig, nil
}
