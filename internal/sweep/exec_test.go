package sweep

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ehmodel/internal/device"
	"ehmodel/internal/runner"
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
	res, errs := e.Run(context.Background(), cells, runner.Options{Workers: workers})
	if len(errs) != 0 {
		t.Fatal(errs[0])
	}
	return res
}

// TestExecutorColdWarm: a second run of the same cells is answered
// entirely from the store with bit-identical results.
func TestExecutorColdWarm(t *testing.T) {
	e := NewExecutor(NewMemStore(0))
	cells := []Cell{testCell(t, 1, 2000), testCell(t, 1, 3000), testCell(t, 2, 2000)}

	cold := run1(t, e, cells, 2)
	st := e.Stats()
	if st.Hits != 0 || st.Misses != 3 || st.Bypass != 0 {
		t.Fatalf("cold stats %+v", st)
	}
	for i, r := range cold {
		if r.Cached {
			t.Fatalf("cell %d: cold run reported cached", i)
		}
		if !r.HasKey {
			t.Fatalf("cell %d: hashable cell has no key", i)
		}
	}

	warm := run1(t, e, cells, 3)
	st = e.Stats()
	if st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("warm stats %+v", st)
	}
	for i := range warm {
		if !warm[i].Cached {
			t.Fatalf("cell %d: warm run not cached", i)
		}
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

// TestExecutorBypass: nil store, NoCache, and unhashable cells all run
// live and are counted as bypasses.
func TestExecutorBypass(t *testing.T) {
	// Nil store: everything bypasses (the library-default executor).
	e := NewExecutor(nil)
	res := run1(t, e, []Cell{testCell(t, 1, 2000)}, 1)
	if st := e.Stats(); st.Bypass != 1 || st.Total() != 1 {
		t.Fatalf("nil-store stats %+v", st)
	}
	if res[0].HasKey || res[0].Cached {
		t.Fatalf("bypass cell carries cache state: %+v", res[0])
	}

	// NoCache forces a bypass even with a store attached.
	e = NewExecutor(NewMemStore(0))
	c := testCell(t, 1, 2000)
	c.NoCache = true
	run1(t, e, []Cell{c, c}, 1)
	if st := e.Stats(); st.Bypass != 2 || st.Misses != 0 {
		t.Fatalf("NoCache stats %+v", st)
	}

	// An unhashable strategy bypasses too.
	u := Cell{
		Label: "unkeyed",
		Build: func(ctx context.Context) (device.Config, device.Strategy, error) {
			cfg, s := testContent(t, 1, 2000, 10000)
			_ = s
			return cfg, optedOutStrategy{Strategy: s}, nil
		},
	}
	_, errs := e.Run(context.Background(), []Cell{u}, runner.Options{})
	// The opted-out wrapper cannot actually run (it has no real
	// implementation behind Name etc. beyond the embedded strategy), so
	// accept either a clean bypass or a strategy error — the point is it
	// was counted as bypass, not stored.
	_ = errs
	if st := e.Stats(); st.Bypass < 3 {
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

	_, errs := e.Run(context.Background(), []Cell{c}, runner.Options{})
	if len(errs) != 1 || errs[0].Err != fail {
		t.Fatalf("cold verify: %v", errs)
	}
	if st := e.Stats(); st.Misses != 1 {
		t.Fatalf("rejected result not stored: %+v", st)
	}
	_, errs = e.Run(context.Background(), []Cell{c}, runner.Options{})
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
	if !warm[0].Cached {
		t.Fatal("second run not cached")
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
	res, errs := e.Run(context.Background(), cells, runner.Options{})
	if len(errs) != 1 || errs[0].Index != 1 || errs[0].Err != boom {
		t.Fatalf("errs %v", errs)
	}
	if res[0].Result == nil {
		t.Fatal("healthy cell lost")
	}
}

// TestFlightGroupCollapse exercises the singleflight directly: N
// concurrent calls for one key yield one leader and N−1 followers
// sharing the leader's entry.
func TestFlightGroupCollapse(t *testing.T) {
	var g flightGroup
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	ent := &Entry{Result: nil}

	// The leader enters fn and blocks; every follower spawned after
	// `started` finds the in-flight call and waits on it.
	leaderOut := make(chan error, 1)
	go func() {
		e, shared, err := g.do(context.Background(), key(1), func() (*Entry, error) {
			calls.Add(1)
			close(started)
			<-release
			return ent, nil
		})
		if e != ent || shared {
			err = fmt.Errorf("leader: ent=%p shared=%v", e, shared)
		}
		leaderOut <- err
	}()
	<-started

	const followers = 7
	type out struct {
		ent    *Entry
		shared bool
		err    error
	}
	outs := make(chan out, followers)
	for i := 0; i < followers; i++ {
		go func() {
			e, shared, err := g.do(context.Background(), key(1), func() (*Entry, error) {
				calls.Add(1)
				return ent, nil
			})
			outs <- out{e, shared, err}
		}()
	}
	// Give the followers time to park on the flight, then release.
	waitForFlightWaiters(t, &g)
	close(release)

	if err := <-leaderOut; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < followers; i++ {
		o := <-outs
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.ent != ent {
			t.Fatal("follower got a different entry")
		}
		if !o.shared {
			t.Fatal("a follower became a leader despite the in-flight call")
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d executions for 8 concurrent calls", got)
	}
}

// waitForFlightWaiters gives follower goroutines a moment to enter do()
// and park. The flight's presence is checkable; the parked waiters are
// not, so a short grace period follows.
func waitForFlightWaiters(t *testing.T, g *flightGroup) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		inFlight := len(g.m)
		g.mu.Unlock()
		if inFlight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flight never formed")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
}

// TestFlightGroupFollowerCancellation: a follower whose context dies
// stops waiting without killing the leader.
func TestFlightGroupFollowerCancellation(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.do(context.Background(), key(2), func() (*Entry, error) {
			close(started)
			<-release
			return &Entry{}, nil
		})
		leaderDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, shared, err := g.do(ctx, key(2), func() (*Entry, error) {
		t.Error("canceled follower became a leader")
		return nil, nil
	})
	if !shared || err == nil {
		t.Fatalf("shared=%v err=%v, want canceled follower", shared, err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
}

// TestPlanTree: depth-first leaf order, Len, and fingerprint
// sensitivity to content and structure.
func TestPlanTree(t *testing.T) {
	build := func() *Plan {
		p := NewPlan("root")
		p.Add(testCell(t, 1, 1000))
		g1 := p.Group("g1")
		g1.Add(testCell(t, 1, 2000))
		g1.Add(testCell(t, 1, 3000))
		g2 := p.Group("g2")
		g2.Add(testCell(t, 2, 2000))
		return p
	}
	p := build()
	if p.Len() != 4 {
		t.Fatalf("len %d", p.Len())
	}
	cells := p.Cells()
	want := []string{
		"counter scale=1 τB=1000",
		"counter scale=1 τB=2000",
		"counter scale=1 τB=3000",
		"counter scale=2 τB=2000",
	}
	for i, c := range cells {
		if c.Label != want[i] {
			t.Fatalf("leaf %d = %q, want %q", i, c.Label, want[i])
		}
	}

	ctx := context.Background()
	f1, err := p.Fingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := build().Fingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("identical plans fingerprint differently")
	}
	// Changing one cell's content changes the root fingerprint.
	p3 := build()
	p3.Add(testCell(t, 3, 1000))
	f3, err := p3.Fingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f3 == f1 {
		t.Fatal("content change invisible to fingerprint")
	}
	// Bypass leaves are salted by position+label, not aliased.
	p4 := build()
	c := testCell(t, 1, 1000)
	c.NoCache = true
	p4.Add(c)
	p5 := build()
	c2 := testCell(t, 1, 1000)
	c2.NoCache = true
	c2.Label = "other"
	p5.Add(c2)
	f4, _ := p4.Fingerprint(ctx)
	f5, _ := p5.Fingerprint(ctx)
	if f4 == f5 {
		t.Fatal("bypass leaves aliased")
	}

	// RunPlan returns results in leaf order through the default executor.
	res, errs := RunPlan(ctx, p, runner.Options{Workers: 2})
	if len(errs) != 0 {
		t.Fatal(errs[0])
	}
	if len(res) != 4 {
		t.Fatalf("%d results", len(res))
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
