// Reduced bit-precision backups (§VI-C): approximate applications can
// shave bits off the state they checkpoint. The gain depends on the
// backup cadence — Eq. 16 locates the τ_B where a precision cut pays
// the most. This example sweeps |∂p/∂α_B| across τ_B for several
// compulsory-to-proportional cost ratios and reports the sweet spots.
//
//	go run ./examples/bitprecision
package main

import (
	"fmt"

	"ehmodel/internal/experiments"
	"ehmodel/internal/textplot"
)

func main() {
	fig := experiments.Fig11()

	var series []textplot.Series
	for _, s := range fig.Series {
		ts := textplot.Series{Label: s.Label}
		for _, p := range s.Points {
			ts.Xs = append(ts.Xs, p.X)
			ts.Ys = append(ts.Ys, p.Y)
		}
		series = append(series, ts)
	}
	fmt.Print(textplot.Chart("|∂p/∂α_B| vs τ_B (Fig. 11)", series, 72, 16, true))
	fmt.Println()
	for _, n := range fig.Notes {
		fmt.Println("•", n)
	}

	r := experiments.CaseBitPrecision()
	fmt.Printf("\nAt τ_B,bit = %.0f cycles, cutting one bit (12.5%%) of application-state\n", r.TauBBit)
	fmt.Printf("precision buys Δp = %.4f; the same cut at τ_B,opt buys only %.4f.\n", r.GainOneBit, r.GainAtOpt)
	fmt.Println("Architects can use these curves to decide whether a reduced-precision")
	fmt.Println("backup path is worth building before committing to the design.")
}
