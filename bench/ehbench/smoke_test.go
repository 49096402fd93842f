package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// smokeEnv is a minimal-length environment: one set-up, one timed
// operation per workload.
func smokeEnv(t *testing.T) *env {
	t.Helper()
	g, err := loadGolden(findGoldenDir())
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bin, err := buildEhserve(context.Background(), tmp)
	if err != nil {
		t.Fatal(err)
	}
	return &env{seed: 1, run: 50 * time.Millisecond, minOps: 1, setupReps: 1, tmp: tmp, ehserve: bin, golden: g}
}

// TestSmokeEveryWorkload runs each workload for one minimal pass and
// requires every output check to pass and every end-to-end metric to be
// reported. The figure workloads share the process-wide sweep executor
// and run in turn; the others run alongside them.
func TestSmokeEveryWorkload(t *testing.T) {
	e := smokeEnv(t)
	smoke := func(t *testing.T, w workload) {
		r := newResult(w.Name, e.seed, false)
		if err := w.run(context.Background(), e, r); err != nil {
			t.Fatal(err)
		}
		if err := r.validate(); err != nil {
			t.Error(err)
		}
		for _, c := range r.Checks {
			if !c.OK {
				t.Errorf("check %s failed: %s", c.Name, c.Detail)
			}
		}
		if r.Failed != 0 {
			t.Errorf("%d of %d operations failed", r.Failed, r.Attempted)
		}
	}
	t.Run("figs", func(t *testing.T) {
		t.Parallel()
		for _, w := range workloads {
			if strings.HasPrefix(w.Name, "figs-") {
				t.Run(w.Name, func(t *testing.T) { smoke(t, w) })
			}
		}
	})
	for _, w := range workloads {
		if !strings.HasPrefix(w.Name, "figs-") {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				smoke(t, w)
			})
		}
	}
}

// TestLedgerReportsEveryLayerMetric runs the traced ledger once (about
// half a minute).
func TestLedgerReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced ledger takes about 30 s")
	}
	e := smokeEnv(t)
	r := newResult("all", e.seed, true)
	if err := runLedger(context.Background(), e, r); err != nil {
		t.Fatal(err)
	}
	if err := r.validate(); err != nil {
		t.Fatal(err)
	}
	if !r.correct() {
		t.Fatalf("ledger checks failed: %+v", r.Checks)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json in step with the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, ehbench has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, ehbench has %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, ehbench reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, ehbench has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, e2eMetrics)
	same("per_layer", doc.PerLayer, ledgerMetrics())
}
