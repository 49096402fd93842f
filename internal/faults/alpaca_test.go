package faults

import (
	"context"
	"testing"

	"ehmodel/internal/obsv"
	"ehmodel/internal/strategy"
)

// alpacaCell resolves the task-runtime audit cell: the checkpoint-free
// Alpaca family against the counter workload. The naive flag picks the
// deliberately broken variant whose task commits write a single slot
// in place with no CRC validation.
func alpacaCell(t *testing.T, naive bool) (strategy.Spec, string) {
	t.Helper()
	name := "alpaca"
	if naive {
		name = "alpaca-naive"
	}
	spec, ok := strategy.Lookup(name)
	if !ok {
		t.Fatalf("%s strategy missing", name)
	}
	return spec, "counter"
}

// TestCampaignFindsAlpacaNaiveCommit is the task-runtime regression
// pin: the campaign must catch the non-atomic in-place task commit of
// alpaca-naive as a torn-state violation (the strategy itself requests
// the naive protocol via device.NaiveCommitter — the attack plan is
// cuts-only), and the minimized counterexample must replay
// deterministically from its serialized Case.
func TestCampaignFindsAlpacaNaiveCommit(t *testing.T) {
	ctx := context.Background()
	spec, wl := alpacaCell(t, true)
	rep, err := Campaign(ctx, CampaignOptions{
		Strategy: spec,
		Workload: wl,
		Budget:   64,
		Seed:     7,
		Oracle:   true,
	})
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if rep.Ok() {
		t.Fatalf("campaign missed the alpaca-naive violation in %d schedules over %d windows",
			rep.Schedules, rep.Coverage.Frontier)
	}
	v := rep.Violations[0]
	if v.Class != obsv.ClassTornState {
		t.Fatalf("found class %s, want %s", v.Class, obsv.ClassTornState)
	}
	if rep.FirstFinding < 1 || rep.FirstFinding > rep.Schedules {
		t.Fatalf("FirstFinding = %d outside [1, %d]", rep.FirstFinding, rep.Schedules)
	}

	// The task-runtime frontier must be part of the mined windows: the
	// probe observes task commits, so task-commit exposure windows (and
	// reboot re-execution prefixes, when the probe rebooted) exist.
	kinds := make(map[string]int)
	for _, w := range rep.Windows {
		kinds[w.Kind]++
	}
	if kinds["task-commit"] == 0 {
		t.Errorf("no task-commit windows mined (kinds: %v)", kinds)
	}

	for i := 0; i < 2; i++ {
		c, err := ParseCase(v.Case.String())
		if err != nil {
			t.Fatalf("ParseCase(%q): %v", v.Case.String(), err)
		}
		out, err := ReplayCase(ctx, c)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if !out.HasClass(v.Class) {
			t.Fatalf("replay %d of %q lost the %s verdict: %v", i, v.Case, v.Class, out.Violations)
		}
	}
}

// TestCampaignCleanAlpaca is the other half of the family claim: the
// honest two-phase task commit survives the same bounded campaign,
// oracle attached, with zero verdicts.
func TestCampaignCleanAlpaca(t *testing.T) {
	if testing.Short() {
		t.Skip("spends the whole budget finding nothing")
	}
	ctx := context.Background()
	spec, wl := alpacaCell(t, false)
	rep, err := Campaign(ctx, CampaignOptions{
		Strategy: spec,
		Workload: wl,
		Budget:   16,
		Seed:     11,
		Oracle:   true,
	})
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if !rep.Ok() {
		t.Fatalf("honest task protocol violated: %v", rep.Violations)
	}
	if rep.Schedules != 16 {
		t.Fatalf("clean campaign stopped after %d schedules, want the full 16", rep.Schedules)
	}
	if rep.Coverage.Attacked == 0 {
		t.Fatal("campaign attacked no windows")
	}
}

// TestAlpacaTaskMetricsExported checks the task-runtime observability
// wiring end to end: an audited alpaca run must surface task commits,
// re-executions and privatization-buffer bytes through the standard
// metrics aggregation.
func TestAlpacaTaskMetricsExported(t *testing.T) {
	spec, wl := alpacaCell(t, false)
	coll := obsv.NewCollector()
	ctx := collectorEnv(coll)
	rep, err := Campaign(ctx, CampaignOptions{
		Strategy: spec,
		Workload: wl,
		Budget:   4,
		Seed:     3,
	})
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if !rep.Ok() {
		t.Fatalf("clean alpaca cell violated: %v", rep.Violations)
	}
	m := coll.Aggregate()
	if m.TasksCommitted == 0 {
		t.Error("TasksCommitted = 0, want task commits from the probe and attack runs")
	}
	if m.TaskPrivBytes.Count != m.TasksCommitted {
		t.Errorf("TaskPrivBytes.Count = %d, want one observation per commit (%d)",
			m.TaskPrivBytes.Count, m.TasksCommitted)
	}
	if m.TaskReexecutions == 0 {
		t.Error("TaskReexecutions = 0, want re-executions after injected power cuts")
	}
}
