package device_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/obsv"
	"ehmodel/internal/strategy"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// traceRun executes the counter workload under Hibernus on one engine
// with a SliceSink attached and returns the captured events and the
// Result. energy is the period budget in ALU cycles; margin and
// maxPeriods override the strategy's and the run's defaults when
// nonzero.
func traceRun(t *testing.T, eng device.Engine, scale int, energy, margin float64, maxPeriods int) ([]obsv.Event, *device.Result) {
	t.Helper()
	w, ok := workload.Get("counter")
	if !ok {
		t.Fatal("counter workload missing")
	}
	prog, err := w.Build(workload.Options{Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	sink := &obsv.SliceSink{}
	cfg := benchEquivCfg(prog, energy)
	cfg.Engine = eng
	cfg.Observe = sink
	if maxPeriods != 0 {
		cfg.MaxPeriods = maxPeriods
	}
	h := strategy.NewHibernus()
	if margin != 0 {
		h.Margin = margin
	}
	d, err := device.New(cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	return sink.Events, res
}

// sameEvents fails the test unless both engines emitted the same
// lifecycle stream, event for event.
func sameEvents(t *testing.T, ref, bat []obsv.Event) {
	t.Helper()
	if reflect.DeepEqual(ref, bat) {
		return
	}
	n := len(ref)
	if len(bat) < n {
		n = len(bat)
	}
	for i := 0; i < n; i++ {
		if ref[i] != bat[i] {
			t.Fatalf("engines diverge at event %d:\nreference: %+v\nbatched:   %+v", i, ref[i], bat[i])
		}
	}
	t.Fatalf("engines emit different event counts: reference %d, batched %d", len(ref), len(bat))
}

// fastForwardedPeriods totals the periods a run's EvFastForward events
// report replayed.
func fastForwardedPeriods(evs []obsv.Event) uint64 {
	var n uint64
	for _, e := range evs {
		if e.Type == obsv.EvFastForward {
			n += e.Arg
		}
	}
	return n
}

// filterDiagnostics drops engine-shape diagnostics (EvBatchHorizon) and
// normalizes the engine tag on EvRunBegin, leaving exactly the lifecycle
// stream both engines must agree on event for event.
func filterDiagnostics(evs []obsv.Event) []obsv.Event {
	out := make([]obsv.Event, 0, len(evs))
	for _, e := range evs {
		if e.Type.EngineDiagnostic() {
			continue
		}
		if e.Type == obsv.EvRunBegin {
			e.Arg = 0
		}
		out = append(out, e)
	}
	return out
}

// TestGoldenTraceHibernusCounter pins the exact lifecycle event sequence
// of the counter workload under Hibernus — the paper's single-backup
// narrative: power on, cold start, run until the comparator fires, save
// once, sleep into the brown-out, then restore next period, with a final
// commit at halt. Both engines must produce this sequence, and beyond
// the type sequence the full event payloads (cycle stamps, sim time,
// byte counts, energies) must agree event for event.
func TestGoldenTraceHibernusCounter(t *testing.T) {
	golden := strings.Fields(`
		run-begin
		power-on cold-start
		trigger checkpoint-begin checkpoint-commit sleep brown-out
		power-on restore
		trigger checkpoint-begin checkpoint-commit sleep brown-out
		power-on restore
		trigger checkpoint-begin checkpoint-commit sleep brown-out
		power-on restore
		checkpoint-begin checkpoint-commit halt
		run-end`)

	refEvs, res := traceRun(t, device.EngineReference, 8, 60_000, 0, 0)
	if !res.Completed {
		t.Fatal("golden run did not complete")
	}
	batEvs, _ := traceRun(t, device.EngineBatched, 8, 60_000, 0, 0)
	ref, bat := filterDiagnostics(refEvs), filterDiagnostics(batEvs)
	sameEvents(t, ref, bat)

	got := make([]string, len(ref))
	for i, e := range ref {
		got[i] = e.Type.String()
	}
	if !reflect.DeepEqual(got, golden) {
		t.Fatalf("event sequence mismatch:\ngot:  %v\nwant: %v", got, golden)
	}

	// The trigger announced by Hibernus must be the threshold comparator.
	for _, e := range ref {
		if e.Type == obsv.EvTrigger && obsv.TriggerReason(e.Arg) != obsv.TrigThreshold {
			t.Fatalf("hibernus trigger reason = %v, want threshold", obsv.TriggerReason(e.Arg))
		}
	}

	// The same comparison on the margin-1.02 fixed point (the wide-window
	// row): every period dies mid-backup, and the batched engine replays
	// all but the first two — their events too, stamps and all.
	refEvs, _ = traceRun(t, device.EngineReference, 1, 3_000, 1.02, 200)
	batEvs, _ = traceRun(t, device.EngineBatched, 1, 3_000, 1.02, 200)
	sameEvents(t, filterDiagnostics(refEvs), filterDiagnostics(batEvs))
	if ff := fastForwardedPeriods(batEvs); ff < 190 {
		t.Fatalf("batched engine fast-forwarded %d of 200 periods, want at least 190", ff)
	}
}

// TestDeadlineBoundaryParity checks that both engines report the same
// cycle number in a DeadlineError: the poll boundary where the credit
// counter crossed pollBatchCycles, not wherever the engine's batching
// happened to leave d.cycles.
func TestDeadlineBoundaryParity(t *testing.T) {
	build := func(name string, opts workload.Options) *asm.Program {
		t.Helper()
		w, ok := workload.Get(name)
		if !ok {
			t.Fatalf("%s workload missing", name)
		}
		prog, err := w.Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	// deadline runs prog at the given period budget — on the bench
	// supply, or harvesting tr when it is not nil — to its first real
	// poll on both engines, which must report it alike, and returns the
	// batched engine's error and events.
	deadline := func(prog *asm.Program, budget float64, maxPeriods int, tr *trace.Trace, strat func() device.Strategy) (*device.DeadlineError, []obsv.Event) {
		t.Helper()
		var des [2]*device.DeadlineError
		sink := &obsv.SliceSink{}
		for i, eng := range []device.Engine{device.EngineReference, device.EngineBatched} {
			cfg := benchEquivCfg(prog, budget)
			cfg.Engine = eng
			cfg.MaxPeriods = maxPeriods
			cfg.RunTimeout = time.Nanosecond
			if tr != nil {
				h, err := energy.NewHarvester(tr, 3000, 0.7)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Harvester = h
			}
			if eng == device.EngineBatched {
				cfg.Observe = sink
			}
			d, err := device.New(cfg, strat())
			if err != nil {
				t.Fatal(err)
			}
			if _, err = d.Run(); !errors.As(err, &des[i]) {
				t.Fatalf("engine %v: expected DeadlineError, got %v", eng, err)
			}
		}
		if ref, bat := des[0], des[1]; ref.Cycles != bat.Cycles || ref.Periods != bat.Periods {
			t.Fatalf("deadline position differs:\nreference: cycles=%d periods=%d\nbatched:   cycles=%d periods=%d",
				ref.Cycles, ref.Periods, bat.Cycles, bat.Periods)
		}
		return des[1], sink.Events
	}
	deadline(build("counter", workload.Options{Scale: 20}), 600_000, 20000, nil,
		func() device.Strategy { return strategy.NewTimer(50_000, 0.1) })

	// On the margin-1.02 fixed point the first real check falls in a
	// period the batched engine replays: periods 0 and 1 are simulated
	// (the fixed point and its recorded repeat), replay starts at 2.
	de, _ := deadline(build("counter", workload.Options{Scale: 1}), 3_000, 200, nil, func() device.Strategy {
		h := strategy.NewHibernus()
		h.Margin = 1.02
		return h
	})
	if de.Periods < 2 {
		t.Fatalf("deadline fired in period %d, before any replay", de.Periods)
	}
	t.Logf("deadline fired in period %d at cycle %d", de.Periods, de.Cycles)

	// On the sim-harvest supply the first real check falls inside the
	// first period's post-backup sleep, which the batched engine settles
	// in its fused sleep: the last event before the deadline is the sleep.
	hib, _ := strategy.Lookup("hibernus")
	de, evs := deadline(build("crc", workload.Options{Seg: hib.Seg, Scale: 10}), 6_000, 20000,
		trace.Generate(trace.MultiPeak, 20, 1e-3, 1), hib.New)
	if n := len(evs); n < 2 || evs[n-1].Type != obsv.EvDeadline || evs[n-2].Type != obsv.EvSleep {
		t.Fatalf("deadline did not fire inside a sleep: last events %v", evs[max(0, n-3):])
	}
	t.Logf("deadline fired in a sleep of period %d at cycle %d", de.Periods, de.Cycles)
}
