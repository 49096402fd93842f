package experiments

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"ehmodel/internal/device"
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
		cfg := QuickFig5Config()
		cfg.Run = runner.Options{Workers: workers}
		fig, _, err := Fig5(context.Background(), cfg)
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
		return quickCatalogBytes(t, workers)
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
// default executor and returns every figure's CSV and notes.
func quickCatalogBytes(t *testing.T, workers int) []byte {
	t.Helper()
	figs, failures := GenerateFigures(context.Background(), "all", true, runner.Options{Workers: workers})
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
// them.
func TestAllFiguresIdenticalAcrossEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweep is slow")
	}
	prevExec, prevEngine := sweep.Default(), device.EngineDefault.Resolved()
	defer func() {
		sweep.SetDefault(prevExec)
		device.SetDefaultEngine(prevEngine)
	}()
	sweep.SetDefault(sweep.NewExecutor(nil))

	device.SetDefaultEngine(device.EngineReference)
	ref := quickCatalogBytes(t, 0)
	device.SetDefaultEngine(device.EngineBatched)
	bat := quickCatalogBytes(t, 0)
	if !bytes.Equal(ref, bat) {
		t.Errorf("quick catalog differs between engines:\n%s", firstDiffLine(ref, bat))
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
