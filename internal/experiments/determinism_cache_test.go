package experiments

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"ehmodel/internal/device"
	"ehmodel/internal/obsv"
	"ehmodel/internal/runner"
	"ehmodel/internal/sweep"
)

// TestFigureBytesIdenticalAcrossCacheTemps extends the determinism
// invariant to the memoization layer: a figure's CSV must be
// byte-identical with caching off, on a cold store, on a warm store,
// and at any worker count — the store may only change how fast an
// answer arrives, never the answer.
func TestFigureBytesIdenticalAcrossCacheTemps(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweep is slow")
	}
	prev := sweep.Default()
	defer sweep.SetDefault(prev)

	fig5CSV := func(workers int) []byte {
		t.Helper()
		fig, _, err := Fig5(runner.WithLimit(context.Background(), workers), QuickFig5Config())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fig.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Reference: caching off, serial.
	sweep.SetDefault(sweep.NewExecutor(nil))
	ref := fig5CSV(1)

	// One executor across three runs: cold fill, then two warm replays
	// at different worker counts.
	exec := sweep.NewExecutor(sweep.NewMemStore(0))
	sweep.SetDefault(exec)
	cold := fig5CSV(4)
	st := exec.Stats()
	if st.Misses == 0 {
		t.Fatal("cold run hit a fresh store")
	}
	if st.Bypass != 0 {
		t.Fatalf("fig5 cells should all be hashable: %+v", st)
	}
	warm1 := fig5CSV(1)
	warm8 := fig5CSV(8)
	st = exec.Stats()
	if st.Hits == 0 {
		t.Fatal("warm runs never hit the store")
	}

	for name, got := range map[string][]byte{
		"cache=mem cold workers=4": cold,
		"cache=mem warm workers=1": warm1,
		"cache=mem warm workers=8": warm8,
	} {
		if !bytes.Equal(ref, got) {
			t.Errorf("%s: CSV differs from cache=off:\n%s\n---\n%s", name, ref, got)
		}
	}
}

// TestAllFiguresIdenticalThroughDiskTier holds the whole quick catalog
// to the same invariant through both tiers of a persistent store: the
// CSVs and notes must be byte-identical with caching off, on a cold
// disk store, from a fresh executor over the filled directory (every
// cell a disk hit, as in a second process) and from a second pass on
// that executor (every cell a memory hit). The catalog stores what
// Fig. 5 alone never does: harvested results, Clank extras and
// fast-forwarded runs. The cache-off reference runs on one worker slot
// and the cold pass on eight, so the drivers running at once must also
// reproduce a serial pass.
func TestAllFiguresIdenticalThroughDiskTier(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweep is slow")
	}
	prev := sweep.Default()
	defer sweep.SetDefault(prev)

	allCSV := func(exec *sweep.Executor, workers int) []byte {
		t.Helper()
		sweep.SetDefault(exec)
		return quickCatalogBytes(context.Background(), t, workers)
	}
	tiered := func(dir string) *sweep.Executor {
		t.Helper()
		store, err := sweep.NewTiered(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return sweep.NewExecutor(store)
	}

	ref := allCSV(sweep.NewExecutor(nil), 1)
	dir := t.TempDir()
	cold := allCSV(tiered(dir), 8)
	warm := tiered(dir)
	disk := allCSV(warm, 0)
	st := warm.Stats()
	if st.Total() == 0 || st.Hits != st.Total() {
		t.Fatalf("disk pass: %+v, want every cell a hit", st)
	}
	mem := allCSV(warm, 0)
	if again := warm.Stats(); again.Hits-st.Hits != st.Total() || again.Total() != 2*st.Total() {
		t.Fatalf("memory pass: %+v after %+v, want every cell a hit", again, st)
	}
	for name, got := range map[string][]byte{"cold": cold, "disk": disk, "memory": mem} {
		if !bytes.Equal(ref, got) {
			t.Errorf("%s pass: CSVs differ from cache=off", name)
		}
	}
}

// quickCatalogBytes generates the quick `-fig all` catalog through the
// default executor, in a pool of workers slots, and returns every
// figure's CSV and notes.
func quickCatalogBytes(ctx context.Context, t *testing.T, workers int) []byte {
	t.Helper()
	figs, failures := GenerateFigures(runner.WithLimit(ctx, workers), "all", true, runner.Options{})
	if len(failures) != 0 {
		t.Fatalf("%s: %v", failures[0].ID, failures[0].Err)
	}
	var buf bytes.Buffer
	for _, f := range figs {
		buf.WriteString("# " + f.ID + "\n")
		if err := f.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		for _, n := range f.Notes {
			buf.WriteString("# " + n + "\n")
		}
	}
	return buf.Bytes()
}

// TestAllFiguresIdenticalAcrossEngines runs the engine-equivalence
// oracle over the whole quick catalog: with caching off, every figure's
// CSV and notes must be byte-identical under the reference and the
// batched engine. The drivers run the runtimes with parameters the
// oracle's own table never uses — Figs. 8–10's Clank and store-queue
// characterization, the breakdown figure and the Clank ablations among
// them. Identical bytes cannot show which engine ran, so the engine
// rides the context's device.Env and every device's run-begin event is
// counted: under reference, each simulated cell (every cell is a
// bypass on an uncached executor) must report reference.
func TestAllFiguresIdenticalAcrossEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweep is slow")
	}
	prev := sweep.Default()
	defer sweep.SetDefault(prev)

	var runs engineRuns
	exec := sweep.NewExecutor(nil)
	sweep.SetDefault(exec)
	ctx := device.WithEnv(context.Background(), device.Env{
		Engine:  device.EngineReference,
		Observe: func() obsv.Tracer { return &runs },
	})
	ref := quickCatalogBytes(ctx, t, 0)
	cells := exec.Stats().Bypass
	if n := runs.reference.Load(); cells == 0 || n != cells || runs.batched.Load() != 0 {
		t.Errorf("reference pass: %d runs named reference and %d batched, want all %d simulated cells on reference",
			n, runs.batched.Load(), cells)
	}
	bat := quickCatalogBytes(context.Background(), t, 0)
	if !bytes.Equal(ref, bat) {
		t.Errorf("quick catalog differs between engines:\n%s", firstDiffLine(ref, bat))
	}
}

// engineRuns counts device runs by the engine their run-begin event
// names; devices on every worker share one.
type engineRuns struct{ batched, reference atomic.Uint64 }

func (r *engineRuns) Event(e obsv.Event) {
	if e.Type != obsv.EvRunBegin {
		return
	}
	if e.Arg == 1 {
		r.batched.Add(1)
	} else {
		r.reference.Add(1)
	}
}

// firstDiffLine names the first line on which two outputs differ.
func firstDiffLine(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < min(len(al), len(bl)); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\nreference: %s\nbatched:   %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(al), len(bl))
}

// TestGenerateFiguresDedupesAcrossFigures: one `-fig all`-style batch
// funnels every driver through the shared default executor, so cells
// repeated across figures (and across runs) are answered from the
// store — the counters prove the dedup actually happened.
func TestGenerateFiguresDedupesAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweep is slow")
	}
	prev := sweep.Default()
	defer sweep.SetDefault(prev)
	exec := sweep.NewExecutor(sweep.NewMemStore(0))
	sweep.SetDefault(exec)

	gen := func() {
		t.Helper()
		figs, failures := GenerateFigures(context.Background(), "5", true, runner.Options{})
		if len(failures) != 0 {
			t.Fatal(failures[0].Err)
		}
		if len(figs) != 1 {
			t.Fatalf("%d figures", len(figs))
		}
	}
	gen()
	st := exec.Stats()
	simulated := st.Misses
	if simulated == 0 {
		t.Fatal("no cells simulated")
	}
	gen()
	st = exec.Stats()
	if st.Misses != simulated {
		t.Fatalf("second identical batch re-simulated: %+v", st)
	}
	if st.Hits == 0 {
		t.Fatal("second batch reported no hits")
	}
}
