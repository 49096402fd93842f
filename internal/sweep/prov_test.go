package sweep

import (
	"context"
	"testing"

	"ehmodel/internal/obsv"
	"ehmodel/internal/runner"
)

// tracedRun executes cells with a trace and a provenance log attached
// and returns both alongside the results.
func tracedRun(t *testing.T, e *Executor, cells []Cell, workers int) (*obsv.TraceData, *ProvLog) {
	t.Helper()
	tr := obsv.NewTrace(obsv.NewTraceID(), 0)
	pl := NewProvLog(0)
	ctx := WithProvLog(obsv.ContextWithTrace(context.Background(), tr), pl)
	_, errs := e.Run(ctx, cells, runner.Options{Workers: workers})
	if len(errs) != 0 {
		t.Fatal(errs[0])
	}
	return tr.Snapshot(), pl
}

// spansNamed returns the trace's spans with the given name.
func spansNamed(td *obsv.TraceData, name string) []*obsv.SpanNode {
	var out []*obsv.SpanNode
	var walk func(ns []*obsv.SpanNode)
	walk = func(ns []*obsv.SpanNode) {
		for _, n := range ns {
			if n.Name == name {
				out = append(out, n)
			}
			walk(n.Children)
		}
	}
	walk(td.Tree())
	return out
}

// TestExecutorCellSpans: a traced cold run records one "cell" span per
// cell with its outcome and a nested "device.run" span carrying the
// simulation's lifecycle counts; the warm run's cells are hits with no
// device.run underneath.
func TestExecutorCellSpans(t *testing.T) {
	e := NewExecutor(NewMemStore(0))
	cells := []Cell{testCell(t, 1, 2000), testCell(t, 1, 3000)}

	cold, _ := tracedRun(t, e, cells, 2)
	cellSpans := spansNamed(cold, "cell")
	if len(cellSpans) != 2 {
		t.Fatalf("cold run recorded %d cell spans", len(cellSpans))
	}
	for _, sp := range cellSpans {
		if sp.Attrs["outcome"] != "miss" {
			t.Fatalf("cold cell outcome %q", sp.Attrs["outcome"])
		}
		if sp.Attrs["completed"] != "true" || sp.Attrs["simcycles"] == "" || sp.Attrs["simcycles"] == "0" {
			t.Fatalf("cold cell attrs %v", sp.Attrs)
		}
		var dev *obsv.SpanNode
		for _, c := range sp.Children {
			if c.Name == "device.run" {
				dev = c
			}
		}
		if dev == nil {
			t.Fatal("cell span has no device.run child")
		}
		if dev.Attrs["periods"] == "" || dev.Attrs["backups"] == "" || dev.Attrs["engine"] != "batched" {
			t.Fatalf("device.run attrs %v", dev.Attrs)
		}
	}

	warm, _ := tracedRun(t, e, cells, 2)
	for _, sp := range spansNamed(warm, "cell") {
		if sp.Attrs["outcome"] != "hit" {
			t.Fatalf("warm cell outcome %q", sp.Attrs["outcome"])
		}
	}
	if n := len(spansNamed(warm, "device.run")); n != 0 {
		t.Fatalf("warm run simulated: %d device.run spans", n)
	}
}

// TestExecutorProvenance: the provenance log mirrors the executor's
// outcome accounting, carries worker slots, and recovers the producing
// run's compute cost from the stored entry on hits.
func TestExecutorProvenance(t *testing.T) {
	e := NewExecutor(NewMemStore(0))
	cells := []Cell{testCell(t, 1, 2000), testCell(t, 1, 3000)}

	_, cold := tracedRun(t, e, cells, 2)
	recs := cold.Cells()
	if len(recs) != 2 {
		t.Fatalf("%d cold records", len(recs))
	}
	if cold.ComputedCells() != 2 {
		t.Fatalf("cold computed %d", cold.ComputedCells())
	}
	for _, p := range recs {
		if p.Outcome != "miss" || !p.Computed() {
			t.Fatalf("cold record %+v", p)
		}
		if p.Key == "" || p.Label == "" {
			t.Fatalf("record missing identity: %+v", p)
		}
		if p.Worker < 0 || p.Worker > 1 {
			t.Fatalf("worker slot %d", p.Worker)
		}
		if p.ComputeUS <= 0 || p.WallUS <= 0 || p.SimCycles == 0 || !p.Completed {
			t.Fatalf("cold record costs: %+v", p)
		}
	}

	_, warm := tracedRun(t, e, cells, 2)
	if warm.ComputedCells() != 0 {
		t.Fatalf("warm run computed %d cells", warm.ComputedCells())
	}
	for _, p := range warm.Cells() {
		if p.Outcome != "hit" {
			t.Fatalf("warm outcome %q", p.Outcome)
		}
		// The hit's ComputeUS is the cold run's cost, recovered from the
		// stored entry's provenance stub.
		if p.ComputeUS <= 0 {
			t.Fatalf("hit lost the stored compute cost: %+v", p)
		}
	}

	// Bypass: provenance still records, without a key.
	eb := NewExecutor(nil)
	_, bp := tracedRun(t, eb, []Cell{testCell(t, 1, 2000)}, 1)
	recs = bp.Cells()
	if len(recs) != 1 || recs[0].Outcome != "bypass" || recs[0].Key != "" || !recs[0].Computed() {
		t.Fatalf("bypass record %+v", recs)
	}
}

// TestStoredProvPersisted: the compute-cost stub rides inside the CAS
// entry, and entries stored before provenance existed decode to a hit
// with ComputeUS 0.
func TestStoredProvPersisted(t *testing.T) {
	store := NewMemStore(0)
	e := NewExecutor(store)
	c := testCell(t, 1, 2000)
	run1(t, e, []Cell{c}, 1)

	cfg, strat, err := c.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	k, ok := CellKey(cfg, strat)
	if !ok {
		t.Fatal("cell not keyable")
	}
	enc, ok := store.Get(k)
	if !ok {
		t.Fatal("entry not stored")
	}
	ent, err := decodeEntry(enc)
	if err != nil {
		t.Fatal(err)
	}
	if ent.Prov == nil || ent.Prov.ComputeUS <= 0 || ent.Prov.CreatedUnixMS <= 0 || ent.Prov.Label != c.Label {
		t.Fatalf("stored prov %+v", ent.Prov)
	}

	// A pre-provenance entry (no prov field) still decodes and hits.
	legacy, err := decodeEntry([]byte(`{"result":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Prov != nil {
		t.Fatal("legacy entry grew provenance")
	}
	if storedComputeUS(legacy) != 0 {
		t.Fatal("legacy compute cost not zero")
	}
}

// TestProvLogLimit: records past the limit are counted, not stored, and
// OnCell still fires for every record.
func TestProvLogLimit(t *testing.T) {
	l := NewProvLog(2)
	seen := 0
	l.OnCell = func(CellProv) { seen++ }
	for i := 0; i < 5; i++ {
		l.add(CellProv{Label: "x", Outcome: "miss"})
	}
	if len(l.Cells()) != 2 || l.Dropped() != 3 {
		t.Fatalf("cells %d dropped %d", len(l.Cells()), l.Dropped())
	}
	if seen != 5 {
		t.Fatalf("OnCell fired %d times", seen)
	}
}

// TestProvFromAbsent: with no log attached the lookup returns nil and
// the executor's disabled path stays inert.
func TestProvFromAbsent(t *testing.T) {
	if ProvFrom(context.Background()) != nil {
		t.Fatal("ProvFrom invented a log")
	}
	if got := WithProvLog(context.Background(), nil); got != context.Background() {
		t.Fatal("nil log rewrote the context")
	}
}
