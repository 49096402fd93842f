package sweep

import (
	"context"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/obsv"
	"ehmodel/internal/runner"
	"ehmodel/internal/strategy"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// tracedRun executes cells with a trace and a provenance log attached
// and returns both alongside the results.
func tracedRun(t *testing.T, e *Executor, cells []Cell, workers int) (*obsv.TraceData, *ProvLog) {
	t.Helper()
	tr := obsv.NewTrace(obsv.NewTraceID(), 0)
	pl := NewProvLog(0)
	ctx := WithProvLog(obsv.ContextWithTrace(context.Background(), tr), pl)
	_, errs := e.Run(runner.WithLimit(ctx, workers), cells)
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

// runEndCycles records the cycle position of a device's run-end event.
type runEndCycles struct{ cycles uint64 }

func (r *runEndCycles) Event(e obsv.Event) {
	if e.Type == obsv.EvRunEnd {
		r.cycles = e.Cycles
	}
}

// TestDeviceRunSpansMatchMetrics: each device.run span's summary equals
// what the device's own event stream says, on every settle path — a
// bench supply, a harvested supply, a cache model (which steps the
// reference loop), the reference engine from the env, and a fixed
// point the batched engine fast-forwards.
func TestDeviceRunSpansMatchMetrics(t *testing.T) {
	counter := func(seg asm.Segment) *asm.Program {
		w, _ := workload.Get("counter")
		prog, err := w.Build(workload.Options{Seg: seg, Scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	cell := func(label string, edit func(cfg *device.Config) device.Strategy) Cell {
		return Cell{Label: label, Build: func(context.Context) (device.Config, device.Strategy, error) {
			cfg, s := testContent(t, 1, 2000, 10000)
			if edit != nil {
				s = edit(&cfg)
			}
			return cfg, s, nil
		}}
	}
	cells := []Cell{
		cell("bench", nil),
		cell("harvest", func(cfg *device.Config) device.Strategy {
			cfg.Harvester = mustHarvester(t, trace.Generate(trace.MultiPeak, 10, 1e-3, 42), 40000, 0.7)
			return strategy.NewTimer(2000, 0.1)
		}),
		cell("cache", func(cfg *device.Config) device.Strategy {
			cfg.Prog = counter(asm.FRAM)
			return strategy.NewCacheVolatile()
		}),
		// τ_B beyond the period budget: no period commits, so the second
		// repeats the first and the rest are replayed.
		cell("fixed-point", func(*device.Config) device.Strategy {
			return strategy.NewTimer(20000, 0.1)
		}),
	}
	for _, engine := range []device.Engine{device.EngineBatched, device.EngineReference} {
		var metrics []*obsv.Metrics
		var ends []*runEndCycles
		env := device.Env{Engine: engine, Observe: func() obsv.Tracer {
			m, end := &obsv.Metrics{}, &runEndCycles{}
			metrics, ends = append(metrics, m), append(ends, end)
			return obsv.Multi{m, end}
		}}
		tr := obsv.NewTrace(obsv.NewTraceID(), 0)
		ctx := device.WithEnv(obsv.ContextWithTrace(context.Background(), tr), env)
		// One worker: devices are built in cell order.
		if _, errs := NewExecutor(nil).Run(runner.WithLimit(ctx, 1), cells); len(errs) != 0 {
			t.Fatal(errs[0])
		}
		cellSpans := spansNamed(tr.Snapshot(), "cell")
		if len(cellSpans) != len(cells) || len(metrics) != len(cells) {
			t.Fatalf("%v: %d cell spans, %d devices for %d cells", engine, len(cellSpans), len(metrics), len(cells))
		}
		for i, sp := range cellSpans {
			label := sp.Attrs["label"]
			if label != cells[i].Label || len(sp.Children) != 1 || sp.Children[0].Name != "device.run" {
				t.Fatalf("%v: cell span %d is %q with children %v", engine, i, label, sp.Children)
			}
			got := sp.Children[0].Attrs
			m := metrics[i]
			wantEngine := engine.String()
			if label == "cache" {
				wantEngine = "reference"
			}
			want := map[string]string{
				"engine":     wantEngine,
				"periods":    strconv.FormatUint(m.Periods, 10),
				"backups":    strconv.FormatUint(m.Backups, 10),
				"brown_outs": strconv.FormatUint(m.BrownOuts, 10),
				"ff_periods": strconv.FormatUint(m.FastForwardPeriods, 10),
				"simcycles":  strconv.FormatUint(ends[i].cycles, 10),
				"completed":  strconv.FormatBool(m.CompletedRuns == 1),
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v %s: device.run attrs %v, events say %v", engine, label, got, want)
			}
			if m.Runs != 1 || m.Periods == 0 {
				t.Errorf("%v %s: device saw %d runs, %d periods", engine, label, m.Runs, m.Periods)
			}
			replays := label == "fixed-point" && engine == device.EngineBatched
			if ff := m.FastForwardPeriods; (ff > 0) != replays {
				t.Errorf("%v %s: %d fast-forwarded periods", engine, label, ff)
			}
		}
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
// entry, and an entry in the JSON format that preceded the binary codec
// is a miss in either tier: the cell re-simulates, the entry is
// rewritten in the current format, and the next run hits.
func TestStoredProvPersisted(t *testing.T) {
	store := NewMemStore(0)
	e := NewExecutor(store)
	c := testCell(t, 1, 2000)
	live := run1(t, e, []Cell{c}, 1)[0]
	cfg, s := testContent(t, 1, 2000, 10000)
	k := mustKey(t, cfg, s)
	ent := storedEntry(t, store, k)
	if ent.Prov == nil || ent.Prov.ComputeUS <= 0 || ent.Prov.CreatedUnixMS <= 0 || ent.Prov.Label != c.Label {
		t.Fatalf("stored prov %+v", ent.Prov)
	}

	legacy, err := json.Marshal(map[string]any{
		"result": live.Result,
		"prov":   map[string]any{"label": c.Label, "compute_us": 7, "created_unix_ms": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// heals runs c on a store holding the JSON-era entry: one miss that
	// rewrites it, then a hit on the same executor.
	heals := func(t *testing.T, s Store) {
		t.Helper()
		e := NewExecutor(s)
		run1(t, e, []Cell{c}, 1)
		if st := e.Stats(); st.Misses != 1 || st.Hits != 0 {
			t.Fatalf("JSON-era entry not a miss: %+v", st)
		}
		storedEntry(t, s, k)
		warm := run1(t, e, []Cell{c}, 1)[0]
		if st := e.Stats(); st.Hits != 1 {
			t.Fatalf("rewritten entry not a hit: %+v", st)
		}
		if !reflect.DeepEqual(warm.Result, live.Result) {
			t.Fatal("healed entry serves a different result")
		}
	}
	t.Run("memory", func(t *testing.T) {
		s := NewMemStore(0)
		s.Put(k, legacy) //nolint:errcheck // MemStore.Put cannot fail
		heals(t, s)
	})
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		ds, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Put(k, legacy); err != nil {
			t.Fatal(err)
		}
		tiers, err := NewTiered(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		heals(t, tiers)
		// A later process, with an empty memory tier, reads the rewrite.
		fresh, err := NewTiered(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		storedEntry(t, fresh.Disk, k)
	})
}

// storedEntry reads and decodes k's entry from s, failing the test when
// it is missing or not in the current format.
func storedEntry(t *testing.T, s Store, k Key) *Entry {
	t.Helper()
	enc, ok := s.Get(k)
	if !ok {
		t.Fatal("entry not stored")
	}
	ent, err := decodeEntry(enc)
	if err != nil {
		t.Fatalf("stored entry does not decode: %v", err)
	}
	return ent
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
