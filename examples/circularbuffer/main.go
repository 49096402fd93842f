// Circular buffers for idempotency (§VI-B): on Clank, every
// write-after-read store forces a checkpoint, so an in-place array
// update (Listing 2's conventional form) checkpoints on every
// iteration. Storing the array in a larger circular buffer postpones
// violations by N − n + 1 stores. This example sizes the buffer with
// Eq. 15 against the architecture's Eq. 9 optimum, then verifies on the
// device simulator that progress peaks at the plan.
//
//	go run ./examples/circularbuffer
package main

import (
	"context"
	"fmt"
	"os"

	"ehmodel/internal/experiments"
	"ehmodel/internal/textplot"
)

func main() {
	fig, pts, plan, err := experiments.CaseCircularBuffer(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("Eq. 15 plan: buffer of %d slots (round to %d for cheap indexing), targeting τ_B = %.0f cycles\n\n",
		plan.N, plan.NPow2, plan.Target)
	rows := make([][]string, 0, len(pts))
	best := pts[0]
	for _, p := range pts {
		if p.Progress > best.Progress {
			best = p
		}
	}
	for _, p := range pts {
		mark := ""
		if p.BufN == plan.N {
			mark = "← Eq. 15 plan"
		}
		if p.BufN == best.BufN && mark == "" {
			mark = "← measured best"
		} else if p.BufN == best.BufN {
			mark = "← Eq. 15 plan = measured best"
		}
		rows = append(rows, []string{
			fmt.Sprint(p.BufN),
			fmt.Sprintf("%.0f", p.PredictedTau),
			fmt.Sprintf("%.0f", p.MeasuredTau),
			fmt.Sprintf("%.4f", p.Progress),
			mark,
		})
	}
	fmt.Print(textplot.Table(
		[]string{"buffer N", "τ_B predicted", "τ_B measured", "progress p", ""},
		rows))
	fmt.Println()
	for _, n := range fig.Notes {
		fmt.Println("•", n)
	}
}
