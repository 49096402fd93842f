package experiments

import (
	"fmt"
	"math"

	"ehmodel/internal/core"
)

// figParams is the illustrative configuration of Figs. 2–4: ε is 1% of
// E, unit backup cost and architectural state, α_B = 0.1, no restores,
// no charging.
func figParams() core.Params {
	return core.DefaultParams()
}

// tauBAxis is the τ_B sweep shared by the analytic figures.
func tauBAxis() []float64 { return core.LogSpace(0.1, 200, 120) }

// Fig2 reproduces "progress p for a multi-backup system with varying
// τ_B and backup cost Ω_B": one curve per Ω_B ∈ {0.01, 0.1, 1, 10}·ε,
// each annotated with its closed-form optimum.
func Fig2() *Figure {
	f := &Figure{
		ID:     "fig2",
		Title:  "Multi-backup progress vs time between backups (Fig. 2)",
		XLabel: "τ_B (cycles)",
		YLabel: "progress p",
		XLog:   true,
	}
	for _, omega := range []float64{0.01, 0.1, 1, 10} {
		p := figParams()
		p.OmegaB = omega
		s := Series{Label: fmt.Sprintf("Ω_B=%g", omega)}
		for _, pt := range p.SweepTauB(tauBAxis(), core.DeadAverage) {
			s.Points = append(s.Points, Point{X: pt.X, Y: pt.P})
		}
		f.Series = append(f.Series, s)
		opt := p.TauBOpt()
		f.AddNote("Ω_B=%g: τ_B,opt = %.2f cycles (p = %.4f)", omega, opt,
			p.WithTauB(opt).Progress())
	}
	return f
}

// Fig3 repeats Fig. 2 with no architectural state (A_B = 0): progress
// is monotonically non-increasing, so backing up as often as possible
// wins.
func Fig3() *Figure {
	f := &Figure{
		ID:     "fig3",
		Title:  "Multi-backup progress with A_B = 0 (Fig. 3)",
		XLabel: "τ_B (cycles)",
		YLabel: "progress p",
		XLog:   true,
	}
	for _, omega := range []float64{0.01, 0.1, 1, 10} {
		p := figParams()
		p.OmegaB = omega
		p.AB = 0
		s := Series{Label: fmt.Sprintf("Ω_B=%g", omega)}
		for _, pt := range p.SweepTauB(tauBAxis(), core.DeadAverage) {
			s.Points = append(s.Points, Point{X: pt.X, Y: pt.P})
		}
		f.Series = append(f.Series, s)
	}
	f.AddNote("no interior optimum: p is monotone non-increasing in τ_B")
	return f
}

// Fig4 shows progress under best-case (τ_D = 0), average (τ_B/2) and
// worst-case (τ_B) dead cycles, plus both closed-form optima.
func Fig4() *Figure {
	f := &Figure{
		ID:     "fig4",
		Title:  "Dead-cycle variability bounds (Fig. 4)",
		XLabel: "τ_B (cycles)",
		YLabel: "progress p",
		XLog:   true,
	}
	p := figParams()
	for _, d := range []core.DeadModel{core.DeadBest, core.DeadAverage, core.DeadWorst} {
		s := Series{Label: "τ_D " + d.String()}
		for _, pt := range p.SweepTauB(tauBAxis(), d) {
			s.Points = append(s.Points, Point{X: pt.X, Y: pt.P})
		}
		f.Series = append(f.Series, s)
	}
	f.AddNote("τ_B,opt (average) = %.2f", p.TauBOpt())
	f.AddNote("τ_B,opt (worst case) = %.2f — always below the average-case optimum", p.TauBOptWorstCase())
	return f
}

// Fig11 plots the magnitude of ∂p/∂α_B — the progress gained per unit
// of application-state reduction — against τ_B, marking each curve's
// τ_B,bit sweet spot (Eq. 16). The curves are the Ω_B·A_B/(Ω_B·α_B+ε)
// ratios 10, 25, 50 and 100 on DefaultFig11Base: the paper controls
// the ratio via α_B with all other parameters fixed from the
// susan-on-Clank characterization.
func Fig11() *Figure {
	base := DefaultFig11Base()
	f := &Figure{
		ID:     "fig11",
		Title:  "Benefit of reduced bit-precision vs τ_B (Fig. 11)",
		XLabel: "τ_B (cycles)",
		YLabel: "|∂p/∂α_B|",
		XLog:   true,
	}
	axis := core.LogSpace(1, 4*base.E/base.Epsilon, 120)
	for _, ratio := range []float64{10, 25, 50, 100} {
		// choose α_B so that Ω_B·A_B/(Ω_B·α_B+ε) equals the ratio
		p := base
		alpha := alphaForRatio(p, ratio)
		if alpha < 0 || math.IsNaN(alpha) {
			continue // ratio unreachable for these base parameters
		}
		p.AlphaB = alpha
		s := Series{Label: fmt.Sprintf("ratio=%g", ratio)}
		for _, tb := range axis {
			s.Points = append(s.Points, Point{X: tb, Y: math.Abs(p.WithTauB(tb).DPDAlphaB())})
		}
		f.Series = append(f.Series, s)
		bit := p.TauBBit()
		f.AddNote("ratio=%g: τ_B,bit = %.1f cycles, |∂p/∂α_B| = %.3g, Δp for 1-bit (12.5%%) α_B cut ≈ %.3g",
			ratio, bit,
			math.Abs(p.WithTauB(bit).DPDAlphaB()),
			deltaPForBitCut(p.WithTauB(bit)))
	}
	return f
}

// alphaForRatio solves Ω_B·A_B/(Ω_B·α_B + ε) = ratio for α_B.
func alphaForRatio(p core.Params, ratio float64) float64 {
	return (p.OmegaB*p.AB/ratio - p.Epsilon) / p.OmegaB
}

// deltaPForBitCut estimates the progress gained by dropping one bit of
// precision (an eighth of each byte) from application state.
func deltaPForBitCut(p core.Params) float64 {
	reduced := p
	reduced.AlphaB = p.AlphaB * 7 / 8
	return reduced.Progress() - p.Progress()
}

// DefaultFig11Base returns the illustrative susan-like base when no
// measured characterization is available: Clank-ish arch state and the
// exploratory E/ε ratio of the paper's figures.
func DefaultFig11Base() core.Params {
	p := core.DefaultParams()
	p.E = 10000
	p.AB = 80
	p.OmegaB = 1.25 // Ω_B·A_B = 100·ε: ratios up to 100 are reachable
	return p
}
