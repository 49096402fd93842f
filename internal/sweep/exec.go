package sweep

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"time"

	"ehmodel/internal/device"
	"ehmodel/internal/obsv"
	"ehmodel/internal/runner"
)

// Cell is one sweep leaf: everything needed to run (or recall) a single
// simulation.
type Cell struct {
	// Label names the cell in error reports and progress accounting.
	Label string
	// Build assembles the cell's config and strategy. It runs inside the
	// worker pool (program assembly is part of the cell's work) and must
	// be deterministic: the same cell must always build the same content.
	// The executor wires RunTimeout (from the context's device.Env) and
	// Interrupt itself; Build should leave them unset.
	Build func(ctx context.Context) (device.Config, device.Strategy, error)
	// Extras, when non-nil, runs after a live simulation with the
	// strategy still attached and returns driver-visible data to store
	// alongside the Result (e.g. Clank's violation counters). The value
	// must be JSON-serializable; cache hits return it decoded into
	// CellResult.Extras without a strategy instance.
	Extras func(s device.Strategy, res *device.Result) (any, error)
	// Verify, when non-nil, validates the result — cached or live — and
	// its error fails the point (e.g. "run must complete"). Rejected
	// results are still stored: a cell that fails policy cold must fail
	// identically warm.
	Verify func(res *device.Result) error
}

// CellResult is one executed (or recalled) cell.
type CellResult struct {
	// Result is the simulation outcome.
	Result *device.Result
	// Cfg is the defaulted config exactly as device.Cfg() would report
	// it, available on cache hits without a device.
	Cfg device.Config
	// Extras is the stored extras payload (nil when the cell has none).
	Extras json.RawMessage
}

// DecodeExtras unmarshals the cell's extras into v; it is a no-op
// returning false when the cell carries none.
func (r *CellResult) DecodeExtras(v any) (bool, error) {
	if len(r.Extras) == 0 {
		return false, nil
	}
	if err := json.Unmarshal(r.Extras, v); err != nil {
		return false, err
	}
	return true, nil
}

// Stats is a snapshot of an executor's cache accounting.
type Stats struct {
	// Hits answered a cell from the store; Misses simulated and stored;
	// Bypass ran uncached (unhashable cell or no store);
	// Dedup collapsed onto an identical in-flight cell (singleflight
	// followers); StoreErrors counts failed store writes (the sweep
	// continues — a broken store degrades to slower, never to wrong).
	Hits, Misses, Bypass, Dedup, StoreErrors uint64
}

// Total returns how many cells the executor resolved.
func (s Stats) Total() uint64 { return s.Hits + s.Misses + s.Bypass + s.Dedup }

// Executor runs cells through the store with singleflight dedup,
// layered on runner.MapCtx for the worker pool, panic isolation and
// ordered merge. A nil-store executor degrades to plain runner semantics (every
// cell a bypass), which is the library default — caching is opt-in at
// the CLI/service layer via SetDefault.
type Executor struct {
	store   Store
	flights Group[Key, *Entry]

	hits, misses, bypass, dedup, storeErrs atomic.Uint64
}

// NewExecutor builds an executor over store (nil disables caching).
func NewExecutor(store Store) *Executor { return &Executor{store: store} }

// Store returns the executor's backing store (nil when caching is off).
func (e *Executor) Store() Store { return e.store }

// Stats snapshots the cache counters.
func (e *Executor) Stats() Stats {
	return Stats{
		Hits:        e.hits.Load(),
		Misses:      e.misses.Load(),
		Bypass:      e.bypass.Load(),
		Dedup:       e.dedup.Load(),
		StoreErrors: e.storeErrs.Load(),
	}
}

// defaultExec is the process-wide executor sweep.Run resolves to; a CLI
// or service configures it once at startup, so drivers inherit caching
// without plumbing.
var defaultExec atomic.Pointer[Executor]

// SetDefault installs the process-wide executor. Call once, at startup.
func SetDefault(e *Executor) { defaultExec.Store(e) }

// Default returns the process-wide executor, creating an uncached one on
// first use.
func Default() *Executor {
	if e := defaultExec.Load(); e != nil {
		return e
	}
	e := NewExecutor(nil)
	if defaultExec.CompareAndSwap(nil, e) {
		return e
	}
	return defaultExec.Load()
}

// Run executes cells through the process-default executor.
func Run(ctx context.Context, cells []Cell) ([]CellResult, runner.Errors) {
	return Default().Run(ctx, cells)
}

// Run executes the cells in the slots of the context's worker pool
// (runner.WithLimit; a private GOMAXPROCS pool without one) and returns
// their results merged in input order: results[i] belongs to cells[i],
// failed points are zero-valued with the failure, labelled by
// Cell.Label, in errs — exactly runner.Map's contract, so figures stay
// byte-identical at any worker count and any cache temperature.
func (e *Executor) Run(ctx context.Context, cells []Cell) ([]CellResult, runner.Errors) {
	o := runner.Options{Label: func(i int) string { return cells[i].Label }}
	return runner.MapCtx(ctx, len(cells), o, func(ctx context.Context, i int) (CellResult, error) {
		return e.runCell(ctx, &cells[i])
	})
}

func (e *Executor) runCell(ctx context.Context, c *Cell) (CellResult, error) {
	// Request-scoped observability: when the context carries a trace the
	// whole resolution becomes a "cell" span; when it carries a ProvLog
	// the outcome lands there too. Both are nil-disabled — with neither
	// attached this adds two time stamps and two context lookups per
	// cell, no allocation.
	start := time.Now()
	ctx, sp := obsv.StartSpan(ctx, "cell")
	sp.SetAttr("label", c.Label)

	cfg, strat, err := c.Build(ctx)
	if err != nil {
		return CellResult{}, failSpan(sp, err)
	}
	// The context's engine runs every cell that leaves Engine at its
	// zero value. It is set before the key, which names the engine.
	env := device.EnvFrom(ctx)
	if cfg.Engine == device.EngineBatched {
		cfg.Engine = env.Engine
	}
	// Environmental wiring is the executor's job, applied uniformly so a
	// cell's identity never depends on it: neither the deadline nor the
	// interrupt is part of the key, and an aborted run is never stored.
	if cfg.RunTimeout == 0 {
		cfg.RunTimeout = env.RunTimeout
	}
	if cfg.Interrupt == nil {
		cfg.Interrupt = runner.Interrupt(ctx)
	}

	key, keyed := Key{}, false
	if e.store != nil {
		key, keyed = CellKey(cfg, strat)
	}
	if !keyed {
		e.bypass.Add(1)
		res, dcfg, extras, err := runLive(ctx, env, cfg, strat, c)
		if err != nil {
			return CellResult{}, failSpan(sp, err)
		}
		out := CellResult{Result: res, Cfg: dcfg, Extras: extras}
		e.noteCell(ctx, sp, c, "bypass", Key{}, false, res, start, 0)
		return out, verify(c, res)
	}

	if enc, ok := e.store.Get(key); ok {
		if ent, err := decodeEntry(enc); err == nil {
			e.hits.Add(1)
			e.noteCell(ctx, sp, c, "hit", key, true, ent.Result, start, storedComputeUS(ent))
			return finish(c, cfg, strat, ent)
		}
		// An undecodable entry (one written in an older format, or
		// garbage from a foreign writer) is a miss; the rewrite below
		// heals it.
	}

	waitStart := time.Now()
	ent, shared, err := e.flights.Do(ctx, key, func() (*Entry, error) {
		live := time.Now()
		res, _, extras, err := runLive(ctx, env, cfg, strat, c)
		if err != nil {
			return nil, err
		}
		ent := &Entry{Result: res, Extras: extras, Prov: &StoredProv{
			Label:         c.Label,
			ComputeUS:     time.Since(live).Microseconds(),
			CreatedUnixMS: live.UnixMilli(),
		}}
		if err := e.store.Put(key, encodeEntry(ent)); err != nil {
			e.storeErrs.Add(1)
		}
		return ent, nil
	})
	if err != nil {
		return CellResult{}, failSpan(sp, err)
	}
	outcome := "miss"
	if shared {
		e.dedup.Add(1)
		outcome = "dedup"
		// The follower's whole wait was on the leader's run; record it
		// retroactively (the span was only known to be a wait, not a
		// simulation, once the flight resolved).
		obsv.AddSpan(ctx, "singleflight.wait", waitStart, time.Now())
	} else {
		e.misses.Add(1)
	}
	e.noteCell(ctx, sp, c, outcome, key, true, ent.Result, start, storedComputeUS(ent))
	return finish(c, cfg, strat, ent)
}

// failSpan closes sp recording err; nil-safe, returns err unchanged.
func failSpan(sp *obsv.Span, err error) error {
	sp.SetAttr("error", err.Error())
	sp.Finish()
	return err
}

// storedComputeUS recovers the producing run's cost from an entry.
func storedComputeUS(ent *Entry) int64 {
	if ent.Prov == nil {
		return 0
	}
	return ent.Prov.ComputeUS
}

// noteCell closes the cell span with its outcome and appends the
// provenance record when the request collects one.
func (e *Executor) noteCell(ctx context.Context, sp *obsv.Span, c *Cell, outcome string, key Key, keyed bool, res *device.Result, start time.Time, computeUS int64) {
	wallUS := time.Since(start).Microseconds()
	if computeUS == 0 && (outcome == "miss" || outcome == "bypass") {
		computeUS = wallUS
	}
	if sp != nil {
		sp.SetAttr("outcome", outcome)
		sp.SetUint("simcycles", res.TotalCycles)
		sp.SetBool("completed", res.Completed)
		sp.Finish()
	}
	pl := ProvFrom(ctx)
	if pl == nil {
		return
	}
	p := CellProv{
		Label:     c.Label,
		Outcome:   outcome,
		Worker:    runner.WorkerFrom(ctx),
		WallUS:    wallUS,
		SimCycles: res.TotalCycles,
		Periods:   len(res.Periods),
		Completed: res.Completed,
		ComputeUS: computeUS,
	}
	if keyed {
		p.Key = key.String()
	}
	pl.add(p)
}

// finish assembles a CellResult from a store or singleflight entry.
func finish(c *Cell, cfg device.Config, strat device.Strategy, ent *Entry) (CellResult, error) {
	out := CellResult{
		Result: ent.Result,
		Cfg:    cfg.WithDefaults(strat),
		Extras: ent.Extras,
	}
	return out, verify(c, ent.Result)
}

// runLive simulates the cell and captures its extras. The device gets
// the config's own tracer or, without one, the environment's provider's
// (called here, once per simulated device). When the context carries a
// trace, the simulation also gets its own "device.run" span, closed by
// noteRun; tracing attaches no observer, so a traced cell does the same
// device work as an untraced one.
func runLive(ctx context.Context, env device.Env, cfg device.Config, strat device.Strategy, c *Cell) (*device.Result, device.Config, json.RawMessage, error) {
	if cfg.Observe == nil {
		cfg.Observe = env.Tracer()
	}
	_, sp := obsv.StartSpan(ctx, "device.run")
	d, err := device.New(cfg, strat)
	if err != nil {
		return nil, device.Config{}, nil, failSpan(sp, err)
	}
	res, err := d.Run()
	if err != nil {
		return nil, device.Config{}, nil, failSpan(sp, err)
	}
	noteRun(sp, d, res)
	var extras json.RawMessage
	if c.Extras != nil {
		v, err := c.Extras(strat, res)
		if err != nil {
			return nil, device.Config{}, nil, err
		}
		if v != nil {
			b, err := json.Marshal(v)
			if err != nil {
				return nil, device.Config{}, nil, err
			}
			extras = b
		}
	}
	return res, d.Cfg(), extras, nil
}

// noteRun closes a device.run span with the run's summary: the engine
// that stepped it, the Result's period, backup and brown-out counts
// (every period ends in a brown-out except a completing last one), the
// periods the fast-forward replayed, and the final cycle position.
// Nil-safe.
func noteRun(sp *obsv.Span, d *device.Device, res *device.Result) {
	if sp == nil {
		return
	}
	brownOuts := len(res.Periods)
	if res.Completed {
		brownOuts--
	}
	sp.SetAttr("engine", d.Engine().String())
	sp.SetUint("periods", uint64(len(res.Periods)))
	sp.SetUint("backups", uint64(res.Backups()))
	sp.SetUint("brown_outs", uint64(brownOuts))
	sp.SetUint("ff_periods", d.FastForwardPeriods())
	sp.SetUint("simcycles", res.TotalCycles)
	sp.SetBool("completed", res.Completed)
	sp.Finish()
}

func verify(c *Cell, res *device.Result) error {
	if c.Verify == nil {
		return nil
	}
	return c.Verify(res)
}
