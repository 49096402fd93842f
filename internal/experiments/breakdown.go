package experiments

import (
	"context"
	"fmt"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/strategy"
	"ehmodel/internal/sweep"
	"ehmodel/internal/workload"
)

// BreakdownRow is one runtime's energy split for a workload, as
// fractions of the total supplied energy — the Rodriguez-style
// time/energy breakdown the paper's Related Work surveys, produced by
// measurement rather than by per-system hand analysis.
type BreakdownRow struct {
	System   string
	Progress float64
	Dead     float64
	Backup   float64
	Restore  float64
	Idle     float64
	Residual float64 // charge left below V_off plus unspent final-period energy
}

// BreakdownComparison runs one workload under every runtime on the same
// budget and returns each one's measured energy split. The rows expose
// *why* a runtime wins: Hibernus trades idle for zero dead energy, DINO
// converts supply into backup traffic, Clank's register-only
// checkpoints barely register, and so on. Runtimes run in parallel
// through the sweep engine; a failed runtime leaves a gap at its index.
// The workload is crc on a 20000-cycle supply.
func BreakdownComparison(ctx context.Context) (*Figure, []BreakdownRow, error) {
	const (
		bench        = "crc"
		periodCycles = 20000
	)
	type entry struct {
		name string
		seg  asm.Segment
		make func() device.Strategy
	}
	entries := []entry{
		{"hibernus", asm.SRAM, func() device.Strategy { return strategy.NewHibernus() }},
		{"mementos", asm.SRAM, func() device.Strategy { return strategy.NewMementos() }},
		{"dino", asm.SRAM, func() device.Strategy { return strategy.NewDINO() }},
		{"chain", asm.SRAM, func() device.Strategy { return strategy.NewChain() }},
		{"clank", asm.FRAM, func() device.Strategy { return strategy.NewClank() }},
		{"ratchet", asm.FRAM, func() device.Strategy { return strategy.NewRatchet() }},
	}
	fig := &Figure{
		ID:     "breakdown",
		Title:  fmt.Sprintf("Measured energy breakdown per runtime (%s)", bench),
		XLabel: "runtime index",
		YLabel: "fraction of supplied energy",
	}
	var cells []sweep.Cell
	for _, en := range entries {
		en := en
		cells = append(cells, fixedCell(
			"breakdown "+en.name+"/"+bench,
			energy.MSP430Power(), periodCycles,
			bench, workload.Options{Seg: en.seg, Scale: 4}, en.make))
	}
	all, errs := sweep.Run(ctx, cells)
	failed := errs.FailedSet()

	cats := []string{"progress", "dead", "backup", "restore", "idle"}
	series := make([]Series, len(cats))
	for i, c := range cats {
		series[i] = Series{Label: c}
	}
	var rows []BreakdownRow
	for i := range entries {
		if failed[i] {
			continue
		}
		bd := all[i].Result.Breakdown()
		total := bd.Supply + bd.Harvested
		row := BreakdownRow{
			System:   entries[i].name,
			Progress: bd.Progress / total,
			Dead:     bd.Dead / total,
			Backup:   bd.Backup / total,
			Restore:  bd.Restore / total,
			Idle:     bd.Idle / total,
		}
		row.Residual = 1 - row.Progress - row.Dead - row.Backup - row.Restore - row.Idle
		rows = append(rows, row)
		for j, v := range []float64{row.Progress, row.Dead, row.Backup, row.Restore, row.Idle} {
			series[j].Points = append(series[j].Points, Point{X: float64(i), Y: v})
		}
		fig.AddNote("x=%d: %-9s progress %.3f, dead %.3f, backup %.3f, restore %.3f, idle %.3f",
			i, row.System, row.Progress, row.Dead, row.Backup, row.Restore, row.Idle)
	}
	fig.Series = series
	if len(errs) > 0 {
		fig.AddNote("%s", errs.Summary(len(entries)))
		return fig, rows, errs
	}
	return fig, rows, nil
}
