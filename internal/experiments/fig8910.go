package experiments

import (
	"context"

	"ehmodel/internal/characterize"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// CharacterizationConfig scales the §V-B characterization figures.
type CharacterizationConfig struct {
	// Benches defaults to the MiBench kernel set.
	Benches []string
	// Watchdogs is the Fig. 10 sweep (defaults to 250–3000 step 250).
	Watchdogs []uint64
}

func (c *CharacterizationConfig) setDefaults() {
	if c.Benches == nil {
		for _, w := range workload.MiBench() {
			c.Benches = append(c.Benches, w.Name)
		}
	}
	if c.Watchdogs == nil {
		c.Watchdogs = characterize.DefaultWatchdogs()
	}
}

// QuickCharacterizationConfig trims the sweep for tests and fast
// benches.
func QuickCharacterizationConfig() CharacterizationConfig {
	return CharacterizationConfig{
		Benches:   []string{"lzfx", "sha", "ds"},
		Watchdogs: []uint64{250, 1000, 3000},
	}
}

// Fig8And9 runs the Clank characterization across the three voltage
// traces and returns the average τ_B (Fig. 8) and τ_D (Fig. 9) figures,
// each with SEM error bars. Bars are indexed by benchmark on the x axis
// (one series per trace).
func Fig8And9(ctx context.Context, cfg CharacterizationConfig) (fig8, fig9 *Figure, runs []*characterize.ClankRun, err error) {
	cfg.setDefaults()
	runs, errs, err := characterize.TauBProfile(ctx, cfg.Benches)
	if err != nil {
		return nil, nil, nil, err
	}
	fig8 = &Figure{
		ID:     "fig8",
		Title:  "Average τ_B per benchmark under Clank (Fig. 8)",
		XLabel: "benchmark index",
		YLabel: "τ_B (cycles)",
	}
	fig9 = &Figure{
		ID:     "fig9",
		Title:  "Average τ_D per benchmark under Clank (Fig. 9)",
		XLabel: "benchmark index",
		YLabel: "τ_D (cycles)",
	}
	for _, kind := range trace.Kinds() {
		s8 := Series{Label: kind.String()}
		s9 := Series{Label: kind.String()}
		for _, r := range runs {
			if r.Trace != kind {
				continue
			}
			x := float64(benchIndex(cfg.Benches, r.Bench))
			s8.Points = append(s8.Points, Point{X: x, Y: r.TauB.Mean, Err: r.TauB.SEM})
			s9.Points = append(s9.Points, Point{X: x, Y: r.TauD.Mean, Err: r.TauD.SEM})
		}
		fig8.Series = append(fig8.Series, s8)
		fig9.Series = append(fig9.Series, s9)
	}
	for i, b := range cfg.Benches {
		fig8.AddNote("x=%d: %s", i, b)
		fig9.AddNote("x=%d: %s", i, b)
	}
	if len(errs) > 0 {
		total := len(cfg.Benches) * len(trace.Kinds())
		fig8.AddNote("%s", errs.Summary(total))
		fig9.AddNote("%s", errs.Summary(total))
		return fig8, fig9, runs, errs
	}
	return fig8, fig9, runs, nil
}

func benchIndex(benches []string, name string) int {
	for i, b := range benches {
		if b == name {
			return i
		}
	}
	return -1
}

// Fig10 runs the mixed-volatility store-queue characterization of
// application state α_B across watchdog periods.
func Fig10(ctx context.Context, cfg CharacterizationConfig) (*Figure, []*characterize.AlphaBRun, error) {
	cfg.setDefaults()
	runs, errs, err := characterize.AlphaBProfile(ctx, cfg.Benches, cfg.Watchdogs)
	if err != nil {
		return nil, nil, err
	}
	fig := &Figure{
		ID:     "fig10",
		Title:  "Average application state α_B per benchmark (Fig. 10)",
		XLabel: "benchmark index",
		YLabel: "α_B (bytes/cycle)",
	}
	s := Series{Label: "α_B"}
	var weighted float64
	for _, r := range runs {
		// x is the benchmark's input index, so dropped benchmarks leave
		// a gap instead of shifting every bar after them.
		x := float64(benchIndex(cfg.Benches, r.Bench))
		s.Points = append(s.Points, Point{X: x, Y: r.AlphaB.Mean, Err: r.AlphaB.SEM})
		fig.AddNote("x=%.0f: %s (α_B = %.3f B/cycle)", x, r.Bench, r.AlphaB.Mean)
		weighted += r.AlphaB.Mean
	}
	fig.Series = append(fig.Series, s)
	if len(runs) > 0 {
		fig.AddNote("mean α_B across benchmarks = %.3f B/cycle (paper reports ≈0.16)",
			weighted/float64(len(runs)))
	}
	if len(errs) > 0 {
		fig.AddNote("%s", errs.Summary(len(cfg.Benches)))
		return fig, runs, errs
	}
	return fig, runs, nil
}
