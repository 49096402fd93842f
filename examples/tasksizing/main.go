// Task sizing: a programmer on a DINO/Chain-style task runtime uses the
// EH model to size tasks. The example measures each Table II
// benchmark's natural task length on the device simulator, computes the
// architecture's optimal τ_B from the same run, and shows that
// benchmarks whose tasks land near the optimum make the most progress —
// the paper's Fig. 7 insight, as a workflow.
//
//	go run ./examples/tasksizing
package main

import (
	"context"
	"fmt"
	"os"

	"ehmodel/internal/experiments"
	"ehmodel/internal/textplot"
)

func main() {
	fig, pts, err := experiments.Fig7(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		advice := "tasks well sized"
		switch {
		case p.TauB < p.TauBOpt/2:
			advice = fmt.Sprintf("merge tasks: aim for ~%.0f-cycle tasks", p.TauBOpt)
		case p.TauB > 2*p.TauBOpt:
			advice = fmt.Sprintf("split tasks: aim for ~%.0f-cycle tasks", p.TauBOpt)
		}
		rows = append(rows, []string{
			p.Bench,
			fmt.Sprintf("%.0f", p.TauB),
			fmt.Sprintf("%.0f", p.TauBOpt),
			fmt.Sprintf("%.3f", p.Similarity),
			fmt.Sprintf("%.4f", p.Measured),
			advice,
		})
	}
	fmt.Print(textplot.Table(
		[]string{"benchmark", "task τ_B", "τ_B,opt (Eq. 9)", "similarity", "measured p", "recommendation"},
		rows))
	fmt.Println()
	for _, n := range fig.Notes {
		fmt.Println(n)
	}
}
