package experiments

import (
	"bytes"
	"context"
	"testing"

	"ehmodel/internal/runner"
)

// TestFig5DeterministicAcrossWorkers: the sweep engine's load-bearing
// invariant — a seeded figure sweep produces byte-identical CSV output
// at any worker count, and repeat runs reproduce it exactly. Run under
// -race this also shakes out data races in the parallel drivers.
func TestFig5DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweep is slow")
	}
	csv := func(workers int) []byte {
		t.Helper()
		fig, _, err := Fig5(runner.WithLimit(context.Background(), workers), QuickFig5Config())
		if err != nil {
			t.Fatalf("Fig5(workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		if err := fig.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		return buf.Bytes()
	}

	serial := csv(1)
	parallel := csv(8)
	again := csv(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("workers=1 and workers=8 CSVs differ:\n%s\n---\n%s", serial, parallel)
	}
	if !bytes.Equal(parallel, again) {
		t.Fatal("two workers=8 runs of the same seeded sweep differ")
	}
}
