package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/isa"
	"ehmodel/internal/runner"
	"ehmodel/internal/strategy"
)

// testCell wraps testContent as an executable cell.
func testCell(t testing.TB, scale int, tauB uint64) Cell {
	return Cell{
		Label: fmt.Sprintf("counter scale=%d τB=%d", scale, tauB),
		Build: func(ctx context.Context) (device.Config, device.Strategy, error) {
			cfg, s := testContent(t, scale, tauB, 10000)
			return cfg, s, nil
		},
	}
}

// scrubEnv clears the per-run environmental fields (the ones CellKey
// excludes) so configs can be compared on content.
func scrubEnv(cfg device.Config) device.Config {
	cfg.Interrupt = nil
	cfg.Observe = nil
	cfg.RunTimeout = 0
	return cfg
}

func run1(t *testing.T, e *Executor, cells []Cell, workers int) []CellResult {
	t.Helper()
	res, errs := e.Run(runner.WithLimit(context.Background(), workers), cells)
	if len(errs) != 0 {
		t.Fatal(errs[0])
	}
	return res
}

// TestExecutorColdWarm: results merge in cell order, and a second run of
// the same cells is answered entirely from the store with bit-identical
// results.
func TestExecutorColdWarm(t *testing.T) {
	e := NewExecutor(NewMemStore(0))
	cells := []Cell{testCell(t, 1, 2000), testCell(t, 1, 3000), testCell(t, 2, 2000)}

	cold := run1(t, e, cells, 2)
	st := e.Stats()
	if st.Hits != 0 || st.Misses != 3 || st.Bypass != 0 {
		t.Fatalf("cold stats %+v", st)
	}
	// Result i belongs to cell i whichever worker finishes first. Cells 0
	// and 1 share a config (they differ only in the strategy's τ_B), so
	// each result is also checked against a solo uncached run.
	for i := range cells {
		cfg, strat, err := cells[i].Build(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scrubEnv(cold[i].Cfg), scrubEnv(cfg.WithDefaults(strat))) {
			t.Fatalf("result %d carries another cell's config", i)
		}
		solo := run1(t, NewExecutor(nil), cells[i:i+1], 1)[0]
		if !reflect.DeepEqual(cold[i].Result, solo.Result) {
			t.Fatalf("result %d is not cell %d's", i, i)
		}
	}

	warm := run1(t, e, cells, 3)
	st = e.Stats()
	if st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("warm stats %+v", st)
	}
	for i := range warm {
		if !reflect.DeepEqual(cold[i].Result, warm[i].Result) {
			t.Fatalf("cell %d: cached result differs from live result", i)
		}
		if !reflect.DeepEqual(scrubEnv(cold[i].Cfg), scrubEnv(warm[i].Cfg)) {
			t.Fatalf("cell %d: cached cfg differs", i)
		}
	}
}

// TestExecutorDedupWithinRun: the same content appearing as multiple
// cells of one run is simulated once; the rest are hits or singleflight
// followers.
func TestExecutorDedupWithinRun(t *testing.T) {
	e := NewExecutor(NewMemStore(0))
	var cells []Cell
	for i := 0; i < 6; i++ {
		cells = append(cells, testCell(t, 1, 2000))
	}
	res := run1(t, e, cells, 4)
	st := e.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d simulations for 6 identical cells (stats %+v)", st.Misses, st)
	}
	if st.Hits+st.Dedup != 5 {
		t.Fatalf("hits %d + dedup %d ≠ 5", st.Hits, st.Dedup)
	}
	for i := 1; i < len(res); i++ {
		if !reflect.DeepEqual(res[0].Result, res[i].Result) {
			t.Fatalf("cell %d diverged", i)
		}
	}
}

// TestExecutorBypass: a nil store and an unhashable cell both run live
// and are counted as bypasses.
func TestExecutorBypass(t *testing.T) {
	// Nil store: everything bypasses (the library-default executor).
	e := NewExecutor(nil)
	run1(t, e, []Cell{testCell(t, 1, 2000)}, 1)
	if st := e.Stats(); st.Bypass != 1 || st.Total() != 1 {
		t.Fatalf("nil-store stats %+v", st)
	}

	// An unhashable strategy bypasses even with a store attached.
	e = NewExecutor(NewMemStore(0))
	u := Cell{
		Label: "unkeyed",
		Build: func(ctx context.Context) (device.Config, device.Strategy, error) {
			cfg, s := testContent(t, 1, 2000, 10000)
			_ = s
			return cfg, optedOutStrategy{Strategy: s}, nil
		},
	}
	_, errs := e.Run(context.Background(), []Cell{u})
	// The opted-out wrapper cannot actually run (it has no real
	// implementation behind Name etc. beyond the embedded strategy), so
	// accept either a clean bypass or a strategy error — the point is it
	// was counted as bypass, not stored.
	_ = errs
	if st := e.Stats(); st.Bypass != 1 || st.Misses != 0 {
		t.Fatalf("unhashable cell not bypassed: %+v", st)
	}
}

// TestExecutorVerifyAppliesToCachedResults: a Verify rejection must fire
// identically on the cold (live) and warm (cached) paths, and the
// rejected result must still be stored.
func TestExecutorVerifyAppliesToCachedResults(t *testing.T) {
	e := NewExecutor(NewMemStore(0))
	fail := fmt.Errorf("policy says no")
	c := testCell(t, 1, 2000)
	c.Verify = func(res *device.Result) error { return fail }

	_, errs := e.Run(context.Background(), []Cell{c})
	if len(errs) != 1 || errs[0].Err != fail {
		t.Fatalf("cold verify: %v", errs)
	}
	if st := e.Stats(); st.Misses != 1 {
		t.Fatalf("rejected result not stored: %+v", st)
	}
	_, errs = e.Run(context.Background(), []Cell{c})
	if len(errs) != 1 || errs[0].Err != fail {
		t.Fatalf("warm verify: %v", errs)
	}
	if st := e.Stats(); st.Hits != 1 {
		t.Fatalf("verify-rejected cell was not served from store: %+v", st)
	}
}

// TestExecutorExtrasRoundTrip: driver-side extras survive the store.
func TestExecutorExtrasRoundTrip(t *testing.T) {
	type stats struct {
		Periods int `json:"periods"`
	}
	e := NewExecutor(NewMemStore(0))
	c := testCell(t, 1, 2000)
	c.Extras = func(s device.Strategy, res *device.Result) (any, error) {
		return stats{Periods: len(res.Periods)}, nil
	}
	cold := run1(t, e, []Cell{c}, 1)
	warm := run1(t, e, []Cell{c}, 1)
	var a, b stats
	if ok, err := cold[0].DecodeExtras(&a); !ok || err != nil {
		t.Fatalf("cold extras: %v %v", ok, err)
	}
	if ok, err := warm[0].DecodeExtras(&b); !ok || err != nil {
		t.Fatalf("warm extras: %v %v", ok, err)
	}
	if a != b || a.Periods == 0 {
		t.Fatalf("extras mismatch: %+v vs %+v", a, b)
	}
	if st := e.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("second run not cached: %+v", st)
	}
}

// TestExecutorBuildError: a failing Build fails only its own cell.
func TestExecutorBuildError(t *testing.T) {
	e := NewExecutor(NewMemStore(0))
	boom := fmt.Errorf("no such workload")
	cells := []Cell{
		testCell(t, 1, 2000),
		{Label: "broken", Build: func(ctx context.Context) (device.Config, device.Strategy, error) {
			return device.Config{}, nil, boom
		}},
	}
	res, errs := e.Run(context.Background(), cells)
	if len(errs) != 1 || errs[0].Index != 1 || errs[0].Err != boom {
		t.Fatalf("errs %v", errs)
	}
	if res[0].Result == nil {
		t.Fatal("healthy cell lost")
	}
}

// TestExecutorEnvDeadline: the context's device.Env deadline reaches
// the devices the executor builds. A cell that never halts ends in the
// device's typed deadline error.
func TestExecutorEnvDeadline(t *testing.T) {
	b := asm.New("spin")
	b.Label("loop")
	b.Addi(isa.R1, isa.R1, 1)
	b.Jump("loop")
	spin, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	capC, vmax, von, voff := device.FixedSupplyConfig(1e-6)
	c := Cell{Label: "spin", Build: func(context.Context) (device.Config, device.Strategy, error) {
		return device.Config{
			Prog: spin, Power: energy.MSP430Power(),
			CapC: capC, CapVMax: vmax, VOn: von, VOff: voff,
		}, strategy.NewTimer(4000, 0.1), nil
	}}
	const timeout = 50 * time.Millisecond
	ctx := device.WithEnv(context.Background(), device.Env{RunTimeout: timeout})
	_, errs := Run(ctx, []Cell{c})
	var de *device.DeadlineError
	if len(errs) != 1 || !errors.As(errs[0], &de) || de.Timeout != timeout {
		t.Fatalf("errs %v, want the cell's %v deadline", errs, timeout)
	}
}

// TestExecutorPanicRerun: a cell whose Extras panics fails as a
// *runner.PanicError, and so does the same cell run again on the same
// executor. Its first flight must end with the panic, or the second run
// would wait on it until its deadline.
func TestExecutorPanicRerun(t *testing.T) {
	e := NewExecutor(NewMemStore(0))
	c := testCell(t, 1, 2000)
	c.Extras = func(device.Strategy, *device.Result) (any, error) { panic("extras boom") }
	for run := 1; run <= 2; run++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, errs := e.Run(ctx, []Cell{c})
		cancel()
		var pe *runner.PanicError
		if len(errs) != 1 || !errors.As(errs[0], &pe) || pe.Value != "extras boom" {
			t.Fatalf("run %d: errs %v, want the cell's panic", run, errs)
		}
	}
}

// TestExecutorDiskWarm: a fresh executor over the same disk store
// answers a repeated sweep without simulating (cross-process warmth).
func TestExecutorDiskWarm(t *testing.T) {
	dir := t.TempDir()
	cells := []Cell{testCell(t, 1, 2000), testCell(t, 1, 3000)}

	t1, err := NewTiered(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e1 := NewExecutor(t1)
	cold := run1(t, e1, cells, 2)

	t2, err := NewTiered(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewExecutor(t2) // fresh memory tier: only disk is warm
	warm := run1(t, e2, cells, 2)
	st := e2.Stats()
	if st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("disk-warm stats %+v", st)
	}
	for i := range warm {
		if !reflect.DeepEqual(cold[i].Result, warm[i].Result) {
			t.Fatalf("cell %d: disk round trip changed the result", i)
		}
	}
}
