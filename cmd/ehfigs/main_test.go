package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ehmodel/internal/experiments"
	"ehmodel/internal/runner"
	"ehmodel/internal/sweep"
)

func TestGenerateAnalyticFigures(t *testing.T) {
	for _, id := range []string{"2", "3", "4", "11", "storemajor", "bitprecision"} {
		figs, failures := experiments.GenerateFigures(context.Background(), id, true, runner.Options{})
		if len(failures) != 0 {
			t.Errorf("%s: %v", id, failures[0].Err)
			continue
		}
		if len(figs) != 1 {
			t.Errorf("%s: %d figures", id, len(figs))
		}
	}
}

func TestGenerateSimulatedFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated figures are slow")
	}
	for _, id := range []string{"5", "6", "7", "8", "10", "circular", "variability"} {
		figs, failures := experiments.GenerateFigures(context.Background(), id, true, runner.Options{})
		if len(failures) != 0 {
			t.Errorf("%s: %v", id, failures[0].Err)
			continue
		}
		if len(figs) != 1 {
			t.Errorf("%s: %d figures", id, len(figs))
		}
	}
}

func TestGenerateUnknown(t *testing.T) {
	figs, failures := experiments.GenerateFigures(context.Background(), "nope", true, runner.Options{})
	if len(failures) == 0 {
		t.Fatal("unknown figure accepted")
	}
	if len(figs) != 0 {
		t.Fatalf("unknown figure produced %d figures", len(figs))
	}
}

// TestGenerateCanceledStillDegrades: a pre-canceled context must not
// turn a sweep-backed figure into a hard failure with nothing to show —
// the driver still returns its (empty-series) figure plus the error, so
// ehfigs can render what exists and report the rest.
func TestGenerateCanceledStillDegrades(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	figs, failures := experiments.GenerateFigures(ctx, "5", true, runner.Options{})
	if len(failures) == 0 {
		t.Fatal("canceled sweep reported no failure")
	}
	if len(figs) != 1 {
		t.Fatalf("canceled sweep yielded %d figures, want the partial one", len(figs))
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), "3", true, dir, runner.Options{}, sweep.NewExecutor(nil), nil, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "series,x,y,err\n") {
		t.Fatalf("bad csv: %.40q", string(data))
	}
}
