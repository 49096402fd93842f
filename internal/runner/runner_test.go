package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ehmodel/internal/asm"
	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/isa"
	"ehmodel/internal/strategy"
)

// TestMapOrdered: results land at their input index regardless of the
// worker count or completion order.
func TestMapOrdered(t *testing.T) {
	const n = 37
	for _, workers := range []int{0, 1, 2, 8, 64} {
		res, errs := Map(context.Background(), n, Options{Workers: workers}, func(i int) (int, error) {
			// Stagger completion so late indices often finish first.
			time.Sleep(time.Duration((n-i)%5) * time.Millisecond)
			return i * i, nil
		})
		if errs != nil {
			t.Fatalf("workers=%d: unexpected errors: %v", workers, errs)
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("workers=%d: res[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapEmpty: a zero-length sweep returns immediately and cleanly.
func TestMapEmpty(t *testing.T) {
	res, errs := Map(context.Background(), 0, Options{}, func(i int) (int, error) { return i, nil })
	if len(res) != 0 || errs != nil {
		t.Fatalf("empty sweep: res=%v errs=%v", res, errs)
	}
}

// TestMapPanicIsolation: a panic in one point becomes a typed *RunError
// wrapping a *PanicError for that index only; every other point's result
// survives and the process does not die.
func TestMapPanicIsolation(t *testing.T) {
	const n = 9
	res, errs := Map(context.Background(), n, Options{Workers: 4}, func(i int) (int, error) {
		if i == 3 {
			panic("injected simulation bug")
		}
		return i + 100, nil
	})
	if len(errs) != 1 {
		t.Fatalf("got %d errors, want 1: %v", len(errs), errs)
	}
	var re *RunError
	if !errors.As(errs, &re) || re.Index != 3 {
		t.Fatalf("not a *RunError for index 3: %v", errs)
	}
	var pe *PanicError
	if !errors.As(re, &pe) {
		t.Fatalf("RunError does not wrap *PanicError: %v", re)
	}
	if pe.Value != "injected simulation bug" || len(pe.Stack) == 0 {
		t.Fatalf("panic payload/stack missing: value=%v stackLen=%d", pe.Value, len(pe.Stack))
	}
	failed := errs.FailedSet()
	for i := 0; i < n; i++ {
		switch {
		case i == 3:
			if !failed[i] {
				t.Fatalf("index 3 not in FailedSet")
			}
		case failed[i]:
			t.Fatalf("index %d wrongly failed", i)
		default:
			if res[i] != i+100 {
				t.Fatalf("res[%d] = %d, want %d", i, res[i], i+100)
			}
		}
	}
	if s := errs.Summary(n); !strings.Contains(s, "1/9") || !strings.Contains(s, "panic") {
		t.Fatalf("Summary = %q", s)
	}
}

// TestMapErrorCarriesLabel: the driver-supplied label (the replay
// handle) is attached to the failing point's error.
func TestMapErrorCarriesLabel(t *testing.T) {
	boom := errors.New("boom")
	_, errs := Map(context.Background(), 3, Options{
		Workers: 1,
		Label:   func(i int) string { return fmt.Sprintf("seed=%d", 1000+i) },
	}, func(i int) (int, error) {
		if i == 1 {
			return 0, boom
		}
		return i, nil
	})
	if len(errs) != 1 || !errors.Is(errs, boom) {
		t.Fatalf("errs = %v", errs)
	}
	if got := errs[0].Error(); got != "seed=1001: boom" {
		t.Fatalf("error string = %q", got)
	}
}

// TestSummaryClassifiesProgramErrors: a workload whose PC runs off the
// end surfaces through a sweep as a typed *device.ProgramError, and the
// failure summary buckets it as a program bug — distinct from panics
// and generic errors — so a sweep report points at the workload, not
// the harness.
func TestSummaryClassifiesProgramErrors(t *testing.T) {
	b := asm.New("runaway")
	b.Nop() // falls off the end
	prog, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	pm := energy.MSP430Power()
	capC, vmax, von, voff := device.FixedSupplyConfig(20000 * pm.EnergyPerCycle(energy.ClassALU))
	_, errs := Map(context.Background(), 3, Options{Workers: 2}, func(i int) (int, error) {
		if i != 1 {
			return i, errors.New("unrelated harness failure")
		}
		d, err := device.New(device.Config{
			Prog: prog, Power: pm,
			CapC: capC, CapVMax: vmax, VOn: von, VOff: voff,
			MaxPeriods: 4, MaxCycles: 1 << 20,
		}, strategy.NewTimer(1000, 0.1))
		if err != nil {
			return 0, err
		}
		_, err = d.Run()
		return 0, err
	})
	if len(errs) != 3 {
		t.Fatalf("got %d errors, want 3: %v", len(errs), errs)
	}
	var perr *device.ProgramError
	if !errors.As(errs, &perr) {
		t.Fatalf("no *device.ProgramError in %v", errs)
	}
	if perr.Program != "runaway" {
		t.Fatalf("ProgramError.Program = %q, want %q", perr.Program, "runaway")
	}
	s := errs.Summary(3)
	if !strings.Contains(s, "1 program") || !strings.Contains(s, "2 other") {
		t.Fatalf("Summary = %q, want a '1 program' and a '2 other' bucket", s)
	}
}

// TestMapPreCanceled: a sweep started under a dead context fails every
// point with the cancellation cause without running any of them.
func TestMapPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	const n = 6
	res, errs := Map(ctx, n, Options{Workers: 2}, func(i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if len(res) != n {
		t.Fatalf("len(res) = %d", len(res))
	}
	if len(errs) != n {
		t.Fatalf("got %d errors, want %d: %v", len(errs), n, errs)
	}
	for _, re := range errs {
		if !errors.Is(re, context.Canceled) {
			t.Fatalf("point %d failed with %v, want context.Canceled", re.Index, re.Err)
		}
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d points ran under a pre-canceled context", got)
	}
}

// TestMapMidSweepCancel: cancellation during the sweep does not hang;
// every point either completed or carries a cancellation error, and the
// completed prefix is returned.
func TestMapMidSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 20
	res, errs := Map(ctx, n, Options{Workers: 4}, func(i int) (int, error) {
		if i == 0 {
			cancel()
			return 42, nil
		}
		<-ctx.Done() // a long run that only aborts via cancellation
		return 0, ctx.Err()
	})
	failed := errs.FailedSet()
	if failed[0] || res[0] != 42 {
		t.Fatalf("point 0 should have completed: res[0]=%d failed=%v", res[0], failed[0])
	}
	for i := 1; i < n; i++ {
		if !failed[i] {
			t.Fatalf("point %d neither failed nor blocked on cancellation", i)
		}
	}
	for _, re := range errs {
		if !errors.Is(re, context.Canceled) {
			t.Fatalf("point %d failed with %v, want context.Canceled", re.Index, re.Err)
		}
	}
}

// TestOptionsWorkersClamp: worker-count resolution — ≤0 means
// GOMAXPROCS, and the pool never exceeds the point count.
func TestOptionsWorkersClamp(t *testing.T) {
	if got := (Options{Workers: 5}).workers(3); got != 3 {
		t.Errorf("5 workers for 3 points resolved to %d", got)
	}
	if got := (Options{Workers: 2}).workers(100); got != 2 {
		t.Errorf("explicit 2 workers resolved to %d", got)
	}
	if got := (Options{Workers: -1}).workers(1); got != 1 {
		t.Errorf("negative workers for 1 point resolved to %d", got)
	}
	if got := (Options{}).workers(10_000); got < 1 {
		t.Errorf("default workers resolved to %d", got)
	}
}

// TestInterruptAdapter: the context→poll-function adapter is nil-safe,
// quiet while the context lives, and reports the cause once canceled.
func TestInterruptAdapter(t *testing.T) {
	if Interrupt(nil) != nil {
		t.Fatal("nil context should disable the hook")
	}
	ctx, cancel := context.WithCancel(context.Background())
	poll := Interrupt(ctx)
	if err := poll(); err != nil {
		t.Fatalf("live context polled as %v", err)
	}
	cancel()
	if err := poll(); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context polled as %v", err)
	}
}

// ---------------------------------------------------------------------
// Integration: a real device sweep where one point's strategy panics
// and another point runs a program that never halts. The sweep must
// degrade exactly those two points — typed errors, replayable labels —
// while the healthy point completes.

// panicStrategy is a Timer whose PostStep blows up partway through the
// run, modeling a buggy runtime policy.
type panicStrategy struct {
	*strategy.Timer
	steps int
}

func (s *panicStrategy) PostStep(d *device.Device, st cpu.Step) *device.Payload {
	s.steps++
	if s.steps > 100 {
		panic("strategy bug after 100 steps")
	}
	return s.Timer.PostStep(d, st)
}

// Horizon opts out of batching: the panic trigger counts PostStep
// calls, which only match instructions in per-step mode.
func (s *panicStrategy) Horizon(*device.Device) uint64 { return 1 }

func counterProgram(t *testing.T, n uint32) *asm.Program {
	t.Helper()
	b := asm.New("counter")
	b.Word("count", 0)
	b.La(isa.R1, "count")
	b.Li(isa.R2, n)
	b.Li(isa.R3, 0)
	b.Label("top")
	b.Lw(isa.R4, isa.R1, 0)
	b.Addi(isa.R4, isa.R4, 1)
	b.Sw(isa.R4, isa.R1, 0)
	b.Addi(isa.R3, isa.R3, 1)
	b.Blt(isa.R3, isa.R2, "top")
	b.Lw(isa.R4, isa.R1, 0)
	b.Out(isa.R4)
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func spinProgram(t *testing.T) *asm.Program {
	t.Helper()
	b := asm.New("spin")
	b.Label("loop")
	b.Addi(isa.R1, isa.R1, 1)
	b.Jump("loop")
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSweepDegradesPanicAndDeadline(t *testing.T) {
	ctx := context.Background()
	good := counterProgram(t, 500)
	spin := spinProgram(t)

	type point struct {
		prog    *asm.Program
		strat   device.Strategy
		timeout time.Duration
	}
	points := []point{
		{good, strategy.NewTimer(4000, 0.1), 0},
		{good, &panicStrategy{Timer: strategy.NewTimer(4000, 0.1)}, 0},
		{spin, strategy.NewTimer(4000, 0.1), 50 * time.Millisecond},
	}
	o := Options{
		Workers: len(points),
		Label:   func(i int) string { return []string{"healthy", "panicking", "spinning"}[i] },
	}
	res, errs := Map(ctx, len(points), o, func(i int) (*device.Result, error) {
		p := points[i]
		capC, vmax, von, voff := device.FixedSupplyConfig(1e-6)
		d, err := device.New(device.Config{
			Prog:       p.prog,
			Power:      energy.MSP430Power(),
			CapC:       capC,
			CapVMax:    vmax,
			VOn:        von,
			VOff:       voff,
			RunTimeout: p.timeout,
			Interrupt:  Interrupt(ctx),
		}, p.strat)
		if err != nil {
			return nil, err
		}
		return d.Run()
	})

	if len(errs) != 2 {
		t.Fatalf("got %d failed points, want 2: %v", len(errs), errs)
	}
	failed := errs.FailedSet()
	if failed[0] || !failed[1] || !failed[2] {
		t.Fatalf("wrong failure set: %v", failed)
	}

	// The healthy point completed and produced the expected output.
	if res[0] == nil || !res[0].Completed {
		t.Fatalf("healthy point did not complete: %+v", res[0])
	}
	if len(res[0].Output) != 1 || res[0].Output[0] != 500 {
		t.Fatalf("healthy point output = %v", res[0].Output)
	}

	// The panicking strategy surfaced as a typed, labeled panic error.
	var pe *PanicError
	if !errors.As(errs[0], &pe) {
		t.Fatalf("point 1 error is not a *PanicError: %v", errs[0])
	}
	if errs[0].Label != "panicking" {
		t.Fatalf("point 1 label = %q", errs[0].Label)
	}

	// The non-halting run was cut off by the device's deadline check.
	if !errors.Is(errs[1], device.ErrDeadlineExceeded) {
		t.Fatalf("point 2 error is not ErrDeadlineExceeded: %v", errs[1])
	}
	var de *device.DeadlineError
	if !errors.As(errs[1], &de) || de.Cycles == 0 {
		t.Fatalf("point 2 deadline detail missing: %v", errs[1])
	}
}

// TestMapCtxWorkerSlots: every point sees a valid worker slot via
// WorkerFrom, results stay input-ordered, and a plain context reports
// no slot.
func TestMapCtxWorkerSlots(t *testing.T) {
	if WorkerFrom(context.Background()) != -1 {
		t.Fatal("background context has a worker slot")
	}
	const n, workers = 32, 4
	slots := make([]int, n)
	res, errs := MapCtx(context.Background(), n, Options{Workers: workers},
		func(ctx context.Context, i int) (int, error) {
			slots[i] = WorkerFrom(ctx)
			return i * i, nil
		})
	if len(errs) != 0 {
		t.Fatal(errs[0])
	}
	for i, s := range slots {
		if s < 0 || s >= workers {
			t.Fatalf("point %d ran on slot %d (want 0..%d)", i, s, workers-1)
		}
		if res[i] != i*i {
			t.Fatalf("result %d misordered: %d", i, res[i])
		}
	}
}

// TestMapCtxPanicIsolation: a panic inside the ctx-taking fn is
// recovered per-point, like Map's.
func TestMapCtxPanicIsolation(t *testing.T) {
	res, errs := MapCtx(context.Background(), 3, Options{Workers: 2},
		func(ctx context.Context, i int) (int, error) {
			if i == 1 {
				panic("boom")
			}
			return i, nil
		})
	if len(errs) != 1 || errs[0].Index != 1 {
		t.Fatalf("errs %v", errs)
	}
	var pe *PanicError
	if !errors.As(errs[0].Err, &pe) {
		t.Fatalf("panic not typed: %v", errs[0].Err)
	}
	if res[0] != 0 || res[2] != 2 {
		t.Fatal("surviving points lost")
	}
}

// TestWithLimit: sweeps started under one WithLimit context share its
// slots. Four concurrent MapCtx calls under a limit of 3 never run more
// than 3 points at once, and every running point holds its own slot in
// [0, 3). Cancelling the context fails every point still waiting for a
// slot with the cause, promptly, though the slot is never freed. A
// MapCtx started inside a point runs in that point's slot instead of
// deadlocking, under a limit of 1 and under a sweep's private pool.
func TestWithLimit(t *testing.T) {
	const limit, sweeps, n = 3, 4, 24
	shared := WithLimit(context.Background(), limit)
	var running, peak atomic.Int32
	var held [limit]atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, sweeps)
	for s := 0; s < sweeps; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, errs := MapCtx(shared, n, Options{Workers: limit}, func(ctx context.Context, i int) (int, error) {
				r := running.Add(1)
				defer running.Add(-1)
				for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
				}
				w := WorkerFrom(ctx)
				if w < 0 || w >= limit {
					return 0, fmt.Errorf("slot %d out of [0, %d)", w, limit)
				}
				if !held[w].CompareAndSwap(false, true) {
					return 0, fmt.Errorf("slot %d held by two running points", w)
				}
				defer held[w].Store(false)
				time.Sleep(100 * time.Microsecond) // overlap the sweeps
				return i, nil
			})
			if errs != nil {
				errc <- errs
				return
			}
			for i, v := range res {
				if v != i {
					errc <- fmt.Errorf("result %d misordered: %d", i, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if p := peak.Load(); p > limit || p < 2 {
		t.Errorf("peak of %d points running at once, want 2..%d", p, limit)
	}

	// Cancel while a point waits for the one slot, which another sweep
	// holds until the end of the test.
	one := WithLimit(context.Background(), 1)
	holding, release, holderDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(holderDone)
		MapCtx(one, 1, Options{}, func(context.Context, int) (int, error) {
			close(holding)
			<-release
			return 0, nil
		})
	}()
	<-holding
	ctx, cancel := context.WithCancelCause(one)
	var ran atomic.Int32
	done := make(chan Errors, 1)
	go func() {
		_, errs := MapCtx(ctx, 5, Options{Workers: 5}, func(context.Context, int) (int, error) {
			ran.Add(1)
			return 0, nil
		})
		done <- errs
	}()
	time.Sleep(10 * time.Millisecond) // let the points block on the slot
	cause := errors.New("caller gave up")
	cancel(cause)
	select {
	case errs := <-done:
		if len(errs) != 5 {
			t.Errorf("got %d failed points, want 5: %v", len(errs), errs)
		}
		for _, re := range errs {
			if !errors.Is(re, cause) {
				t.Errorf("point %d failed with %v, want the cancellation cause", re.Index, re.Err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("MapCtx did not return after its context was cancelled")
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("%d points ran without a slot", got)
	}
	close(release)
	<-holderDone

	// Nested under a limit of 1, and under the private pool of a sweep
	// started with none.
	for _, base := range []context.Context{one, context.Background()} {
		testNestedSerial(t, base)
	}
}

// testNestedSerial runs a MapCtx inside each point of a sweep under
// base: every inner point must run in the outer point's slot.
func testNestedSerial(t *testing.T, base context.Context) {
	t.Helper()
	nested := make(chan Errors, 1)
	go func() {
		_, errs := MapCtx(base, 2, Options{}, func(ctx context.Context, i int) (int, error) {
			inner, errs := MapCtx(ctx, 3, Options{Workers: 3}, func(ctx context.Context, j int) (int, error) {
				return WorkerFrom(ctx), nil
			})
			if errs != nil {
				return 0, errs
			}
			for j, w := range inner {
				if w != WorkerFrom(ctx) {
					return 0, fmt.Errorf("inner point %d ran on slot %d, outer on %d", j, w, WorkerFrom(ctx))
				}
			}
			return i, nil
		})
		nested <- errs
	}()
	select {
	case errs := <-nested:
		if errs != nil {
			t.Error(errs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a MapCtx nested in a point deadlocked")
	}
}

// TestWithLimitOutermostWins: WithLimit on a context that already
// carries a pool keeps that pool. A sweep under the inner call runs in
// the outer pool's slots, and the inner n and o.Workers are ignored.
func TestWithLimitOutermostWins(t *testing.T) {
	const outerN, innerN, n = 2, 8, 16
	ctx := WithLimit(WithLimit(context.Background(), outerN), innerN)
	var running, peak atomic.Int32
	res, errs := MapCtx(ctx, n, Options{Workers: innerN}, func(ctx context.Context, i int) (int, error) {
		r := running.Add(1)
		defer running.Add(-1)
		for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
		}
		time.Sleep(200 * time.Microsecond) // overlap the points
		return WorkerFrom(ctx), nil
	})
	if errs != nil {
		t.Fatal(errs)
	}
	for i, w := range res {
		if w < 0 || w >= outerN {
			t.Errorf("point %d ran on slot %d, want the outer pool's [0, %d)", i, w, outerN)
		}
	}
	if p := peak.Load(); p > outerN {
		t.Errorf("peak of %d points running at once under an outer pool of %d", p, outerN)
	}
}
