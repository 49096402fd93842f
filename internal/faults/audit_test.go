package faults

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ehmodel/internal/device"
	"ehmodel/internal/obsv"
	"ehmodel/internal/runner"
	"ehmodel/internal/strategy"
)

// TestAuditQuick is the always-on smoke sweep: every strategy × every
// default workload under a couple of seeded attack schedules.
func TestAuditQuick(t *testing.T) {
	rep, err := Audit(context.Background(), Options{Schedules: 2, BaseSeed: 1})
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !rep.Ok() {
		for _, v := range rep.Violations {
			t.Errorf("violation: %v", v)
		}
		t.Fatalf("%d/%d runs violated crash consistency", len(rep.Violations), rep.Runs)
	}
	wantRuns := len(strategy.Catalog()) * len(DefaultWorkloads) * 2
	if rep.Runs != wantRuns {
		t.Fatalf("Runs = %d, want %d", rep.Runs, wantRuns)
	}
}

// TestAuditAllStrategies is the acceptance sweep: the full strategy
// catalog × {counter, ds, crc, qsort} under 100 seeded failure schedules
// per cell, with torn writes, bit flips, random supply cuts and forced
// stale restores all enabled. Every run must either match the
// continuous-power oracle or fail-stop with a detected-unrecoverable
// abort — and the attack surface must demonstrably have been exercised.
func TestAuditAllStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("full 100-schedule audit sweep skipped in -short")
	}
	rep, err := Audit(context.Background(), Options{Schedules: 100, BaseSeed: 2026})
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !rep.Ok() {
		for i, v := range rep.Violations {
			if i == 20 {
				t.Errorf("... and %d more", len(rep.Violations)-20)
				break
			}
			t.Errorf("violation: %v", v)
		}
		t.Fatalf("%d/%d runs violated crash consistency", len(rep.Violations), rep.Runs)
	}
	wantRuns := len(strategy.Catalog()) * len(DefaultWorkloads) * 100
	if rep.Runs != wantRuns {
		t.Fatalf("Runs = %d, want %d", rep.Runs, wantRuns)
	}
	// The sweep only proves something if the attack actually landed.
	f := rep.Faults
	if f.PowerCuts == 0 || f.TornBackups == 0 || f.BitFlips == 0 ||
		f.CRCRejections == 0 || f.StaleRestores == 0 || f.ColdRestarts == 0 {
		t.Fatalf("attack surface not exercised: %+v", f)
	}
	if rep.Unrecoverable == 0 {
		t.Fatal("no run exercised the fail-stop unrecoverable-state detection")
	}
	t.Logf("runs=%d unrecoverable=%d faults=%+v", rep.Runs, rep.Unrecoverable, f)
}

// TestNaiveCommitCaught proves the auditor has teeth: downgrading the
// device to the naive single-slot, unvalidated commit (the protocol the
// two-phase design replaces) under the same attack mix must produce
// crash-consistency violations.
func TestNaiveCommitCaught(t *testing.T) {
	plan := DefaultPlan()
	plan.NaiveCommit = true
	// Tears hit the naive path's single slot hard; raise the rate so a
	// short sweep reliably corrupts at least one mid-write image.
	plan.TornWriteProb = 0.01
	plan.BitFlipRate = 0.01
	rep, err := Audit(context.Background(), Options{
		Workloads: []string{"counter", "ds"},
		Schedules: 6,
		BaseSeed:  7,
		Plan:      plan,
	})
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if rep.Ok() {
		t.Fatalf("naive single-slot commit survived %d attacked runs undetected — the auditor is blind", rep.Runs)
	}
	t.Logf("naive commit caught: %d violations in %d runs (first: %v)", len(rep.Violations), rep.Runs, rep.Violations[0])
}

// TestAuditDeterministic: equal Options reproduce the whole sweep,
// violations and fault tallies included.
func TestAuditDeterministic(t *testing.T) {
	opts := Options{
		Strategies: pick(t, "hibernus", "clank", "dino"),
		Workloads:  []string{"counter", "crc"},
		Schedules:  3,
		BaseSeed:   99,
	}
	r1, err := Audit(context.Background(), opts)
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	r2, err := Audit(context.Background(), opts)
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same options produced different reports:\n%+v\n%+v", r1, r2)
	}
	// The worker count must not change the report: the sweep engine
	// merges in input order, so the parallel audit is byte-identical to
	// the serial one.
	for _, workers := range []int{1, 8} {
		r, err := Audit(runner.WithLimit(context.Background(), workers), opts)
		if err != nil {
			t.Fatalf("Audit(workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(r1, r) {
			t.Fatalf("workers=%d changed the report:\n%+v\n%+v", workers, r1, r)
		}
	}
}

// engineRuns counts device runs by the engine their run-begin event
// names; devices on several workers share one.
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

// TestAuditRunsEnvEngine: the context's device.Env picks the engine of
// every audited device. The report cannot show which engine ran (the
// engines are byte-identical, which the comparison with a batched
// sweep checks), so each device's run-begin event must name it.
func TestAuditRunsEnvEngine(t *testing.T) {
	opts := Options{
		Strategies: pick(t, "hibernus", "dino"),
		Workloads:  []string{"crc"},
		Schedules:  2,
		BaseSeed:   5,
	}
	var runs engineRuns
	ctx := device.WithEnv(context.Background(), device.Env{
		Engine:  device.EngineReference,
		Observe: func() obsv.Tracer { return &runs },
	})
	ref, err := Audit(ctx, opts)
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if n := runs.reference.Load(); ref.Runs == 0 || n != uint64(ref.Runs) || runs.batched.Load() != 0 {
		t.Fatalf("%d runs named reference and %d batched, want all %d audited runs on reference",
			n, runs.batched.Load(), ref.Runs)
	}
	bat, err := Audit(context.Background(), opts)
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !reflect.DeepEqual(ref, bat) {
		t.Fatalf("reference and batched audits differ:\n%+v\n%+v", ref, bat)
	}
}

// TestReplayCaseEnvDeadline: the context's device.Env deadline reaches
// a replayed case's device, which ends in the typed deadline error. The
// case is long enough to reach the device's first deadline poll.
func TestReplayCaseEnvDeadline(t *testing.T) {
	c, err := ParseCase("hibernus/counter seed=2075050420369660098")
	if err != nil {
		t.Fatal(err)
	}
	ctx := device.WithEnv(context.Background(), device.Env{RunTimeout: time.Nanosecond})
	_, err = ReplayCase(ctx, c)
	var de *device.DeadlineError
	if !errors.As(err, &de) || de.Timeout != time.Nanosecond {
		t.Fatalf("ReplayCase returned %v, want the case's 1ns deadline", err)
	}
}

// TestAuditRejectsBadSetup: setup failures are errors, not violations.
func TestAuditRejectsBadSetup(t *testing.T) {
	if _, err := Audit(context.Background(), Options{Workloads: []string{"no-such-workload"}, Schedules: 1}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Audit(context.Background(), Options{Schedules: 1, Plan: Plan{TornWriteProb: 2}}); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

func pick(t *testing.T, names ...string) []strategy.Spec {
	t.Helper()
	specs := make([]strategy.Spec, 0, len(names))
	for _, n := range names {
		s, ok := strategy.Lookup(n)
		if !ok {
			t.Fatalf("strategy %q not in catalog", n)
		}
		specs = append(specs, s)
	}
	return specs
}
