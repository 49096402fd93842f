package faults

import (
	"context"
	"reflect"
	"testing"

	"ehmodel/internal/obsv"
	"ehmodel/internal/strategy"
	"ehmodel/internal/workload"
)

// oracle_test.go — regression tests for the formal correctness oracle:
// violations the final-output comparison is provably blind to, pinned
// to their verdict classes.

// replayedInputCase is the seeded freshness violation: the sense
// workload under chain with one supply cut and a forced stale restore.
// The rollback crosses a commit that already persisted input #0, the
// reboot re-reads it, and a later commit persists it again. Because the
// simulated environment is deterministic, the re-read returns the same
// value and the final output still matches the continuous oracle —
// exactly the violation the PR-1 final-memory check cannot see.
const replayedInputCase = "chain/sense seed=1 cuts=400 stale=1 oracle"

func TestOracleCatchesReplayedInput(t *testing.T) {
	ctx := context.Background()
	c, err := ParseCase(replayedInputCase)
	if err != nil {
		t.Fatalf("ParseCase: %v", err)
	}
	out, err := ReplayCase(ctx, c)
	if err != nil {
		t.Fatalf("ReplayCase: %v", err)
	}

	// The run is invisible to the final-memory check: it completes and
	// its committed output equals the continuous execution's.
	if !out.Completed {
		t.Fatal("run did not complete; the scenario must finish to show the blind spot")
	}
	spec, _ := strategy.Lookup("chain")
	w, _ := workload.Get("sense")
	want := w.Ref(workload.Options{Seg: spec.Seg})
	if !reflect.DeepEqual(out.Output, want) {
		t.Fatalf("final output diverged (got %v, want %v); the scenario must pass the output check", out.Output, want)
	}
	if out.HasClass(obsv.ClassTornState) || out.HasClass(obsv.ClassIncomplete) {
		t.Fatalf("base auditor flagged the run (%v); the scenario must only be visible to the oracle", out.Violations)
	}

	// The oracle sees the duplicated committed observation.
	if !out.HasClass(obsv.ClassReplayedInput) {
		t.Fatalf("oracle missed the replayed input; violations: %v", out.Violations)
	}

	// Without the oracle the identical schedule reports nothing — the
	// blind spot this oracle exists to close.
	blind := c
	blind.Oracle = false
	bout, err := ReplayCase(ctx, blind)
	if err != nil {
		t.Fatalf("ReplayCase (oracle off): %v", err)
	}
	if len(bout.Violations) != 0 {
		t.Fatalf("final-output auditor reported %v without the oracle; scenario no longer isolates the blind spot", bout.Violations)
	}
}

// TestOracleReplayDeterministic pins the repro contract: replaying the
// printed case string reproduces the identical verdict classes.
func TestOracleReplayDeterministic(t *testing.T) {
	ctx := context.Background()
	c, err := ParseCase(replayedInputCase)
	if err != nil {
		t.Fatalf("ParseCase: %v", err)
	}
	first, err := ReplayCase(ctx, c)
	if err != nil {
		t.Fatalf("first replay: %v", err)
	}
	// Round-trip through the printed (enriched) form, as -repro does.
	again, err := ParseCase(first.Case.String())
	if err != nil {
		t.Fatalf("ParseCase(%q): %v", first.Case.String(), err)
	}
	second, err := ReplayCase(ctx, again)
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if !reflect.DeepEqual(first.Classes(), second.Classes()) {
		t.Fatalf("replay diverged: first %v, second %v", first.Classes(), second.Classes())
	}
}

// TestOracleTimeliness checks the input-freshness obligation: under a
// plain timer runtime the sense workload's reads sit uncommitted until
// the next periodic checkpoint, so a tight freshness bound is violated
// even on fault-free power. Wrapping the same runtime in SenseCommit
// (commit immediately after every input read) restores timeliness.
func TestOracleTimeliness(t *testing.T) {
	ctx := context.Background()
	spec, ok := strategy.Lookup("timer")
	if !ok {
		t.Fatal("timer strategy missing")
	}
	w, ok := workload.Get("sense")
	if !ok {
		t.Fatal("sense workload missing")
	}
	opts := workload.Options{Seg: spec.Seg}
	prog, err := w.Build(opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	want := w.Ref(opts)

	// Fault-free plan (seed only) so the verdict isolates the
	// checkpoint cadence, not the attack mix.
	o := Options{Plan: Plan{Seed: 1}, Oracle: true, FreshnessBound: 500}

	bare, err := AuditRun(ctx, o, spec.New(), prog, want, Case{Strategy: "timer", Workload: "sense", Seed: 1})
	if err != nil {
		t.Fatalf("AuditRun (timer): %v", err)
	}
	if !bare.Completed {
		t.Fatal("timer run did not complete")
	}
	if !bare.HasClass(obsv.ClassTimeliness) {
		t.Fatalf("timer/sense with bound 500 should violate timeliness; violations: %v", bare.Violations)
	}

	protected, err := AuditRun(ctx, o, strategy.NewSenseCommit(spec.New()), prog, want,
		Case{Strategy: "timer+sense", Workload: "sense", Seed: 1})
	if err != nil {
		t.Fatalf("AuditRun (timer+sense): %v", err)
	}
	if !protected.Completed || !reflect.DeepEqual(protected.Output, want) {
		t.Fatalf("SenseCommit wrapper broke the run: completed=%v output=%v", protected.Completed, protected.Output)
	}
	if len(protected.Violations) != 0 {
		t.Fatalf("SenseCommit should satisfy the freshness bound; violations: %v", protected.Violations)
	}
}

// TestOracleCleanUnderHonestProtocol guards against false positives:
// the two-slot protocol under the crash-model attack mix (supply cuts
// and torn checkpoint writes) must stay violation-free with the oracle
// attached — an honest reboot restores the latest valid commit, so
// re-execution covers only uncommitted work and no committed
// observation is ever duplicated. The dormant-state attacks are
// excluded deliberately, because against them replayed inputs are TRUE
// positives for any input-unprotected runtime: a forced stale restore
// rolls back past a commit by construction
// (TestOracleCatchesReplayedInput relies on exactly that), and bit
// flips can corrupt every stored slot, forcing a cold start that
// re-reads already-committed inputs.
func TestOracleCleanUnderHonestProtocol(t *testing.T) {
	ctx := context.Background()
	plan := DefaultPlan()
	plan.StaleRestoreProb = 0
	plan.BitFlipRate = 0
	rep, err := Audit(ctx, Options{
		Workloads: []string{"sense", "counter"},
		Schedules: 2,
		BaseSeed:  3,
		Plan:      plan,
		Oracle:    true,
	})
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !rep.Ok() {
		for _, v := range rep.Violations {
			t.Errorf("false positive: %v", v)
		}
		t.Fatalf("%d oracle violations under the honest protocol", len(rep.Violations))
	}
}
