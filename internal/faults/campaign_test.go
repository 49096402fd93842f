package faults

import (
	"context"
	"testing"

	"ehmodel/internal/device"
	"ehmodel/internal/obsv"
	"ehmodel/internal/strategy"
	"ehmodel/internal/workload"
)

// campaignCell returns the standard campaign benchmark cell: the timer
// runtime downgraded to the naive single-slot commit, counting to 2000.
// A cut inside a (non-first) checkpoint write tears the only slot and
// the un-validated restore silently diverges — the known torn-state
// violation the campaign must find efficiently.
func campaignCell(t *testing.T) (strategy.Spec, string) {
	t.Helper()
	spec, ok := strategy.Lookup("timer")
	if !ok {
		t.Fatal("timer strategy missing")
	}
	return spec, "counter"
}

func TestCampaignFindsNaiveCommitTornState(t *testing.T) {
	ctx := context.Background()
	spec, wl := campaignCell(t)
	rep, err := Campaign(ctx, CampaignOptions{
		Strategy: spec,
		Workload: wl,
		Plan:     Plan{NaiveCommit: true},
		Budget:   64,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if rep.Ok() {
		t.Fatalf("campaign missed the naive-commit violation in %d schedules over %d windows",
			rep.Schedules, rep.Coverage.Frontier)
	}
	v := rep.Violations[0]
	if v.Class != obsv.ClassTornState {
		t.Fatalf("found class %s, want %s", v.Class, obsv.ClassTornState)
	}
	if rep.FirstFinding < 1 || rep.FirstFinding > rep.Schedules {
		t.Fatalf("FirstFinding = %d outside [1, %d]", rep.FirstFinding, rep.Schedules)
	}
	if rep.Coverage.Attacked < 1 || rep.Coverage.Attacked > rep.Coverage.Frontier {
		t.Fatalf("coverage %d/%d inconsistent", rep.Coverage.Attacked, rep.Coverage.Frontier)
	}

	// The minimized counterexample is a single cut that replays
	// deterministically to the same verdict class — twice.
	if len(v.Case.Cuts) != 1 {
		t.Fatalf("shrinker left %d cuts, want 1 (case %s)", len(v.Case.Cuts), v.Case)
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

// uniformFirstFinding measures the baseline the campaign competes
// against: single uniformly random cuts over the probe's cycle space,
// same per-run environment, counted until the first violation (capped
// at budget).
func uniformFirstFinding(ctx context.Context, t *testing.T, spec strategy.Spec, wl string, space uint64, seed uint64, budget int) int {
	t.Helper()
	w, ok := workload.Get(wl)
	if !ok {
		t.Fatalf("workload %s missing", wl)
	}
	opts := workload.Options{Seg: spec.Seg}
	prog, err := w.Build(opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	want := w.Ref(opts)
	for k := 1; k <= budget; k++ {
		cut := 1 + splitmix(seed^uint64(k)<<20)%space
		c := Case{Strategy: spec.Name, Workload: wl, Seed: int64(seed),
			Cuts: []uint64{cut}, Naive: true}
		out, err := AuditRun(ctx, Options{}, spec.New(), prog, want, c)
		if err != nil {
			t.Fatalf("uniform schedule %d: %v", k, err)
		}
		if out != nil && len(out.Violations) > 0 {
			return k
		}
	}
	return budget + 1
}

// TestCampaignBeatsUniformRandom is the search-efficiency acceptance
// check: the frontier-biased campaign must find the naive-commit
// torn-state violation in at most 25% of the schedules uniform-random
// placement needs, averaged over several uniform streams.
func TestCampaignBeatsUniformRandom(t *testing.T) {
	ctx := context.Background()
	spec, wl := campaignCell(t)

	rep, err := Campaign(ctx, CampaignOptions{
		Strategy: spec,
		Workload: wl,
		Plan:     Plan{NaiveCommit: true},
		Budget:   64,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if rep.Ok() || rep.FirstFinding == 0 {
		t.Fatal("campaign found nothing; efficiency comparison impossible")
	}

	const budget = 64
	total := 0
	streams := []uint64{101, 202, 303, 404, 505}
	for _, s := range streams {
		total += uniformFirstFinding(ctx, t, spec, wl, rep.ProbeCycles, s, budget)
	}
	uniformMean := float64(total) / float64(len(streams))
	t.Logf("campaign first finding: schedule %d; uniform mean over %d streams: %.1f",
		rep.FirstFinding, len(streams), uniformMean)
	if ratio := float64(rep.FirstFinding) / uniformMean; ratio > 0.25 {
		t.Fatalf("campaign needed %d schedules vs uniform mean %.1f (ratio %.2f > 0.25)",
			rep.FirstFinding, uniformMean, ratio)
	}
}

// TestCampaignCleanCell guards the other direction: against the honest
// two-slot protocol with a cuts-only mix the campaign must come up
// empty while still covering its frontier.
func TestCampaignCleanCell(t *testing.T) {
	if testing.Short() {
		t.Skip("spends the whole budget finding nothing")
	}
	ctx := context.Background()
	spec, wl := campaignCell(t)
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
		t.Fatalf("honest protocol violated: %v", rep.Violations)
	}
	if rep.Schedules != 16 {
		t.Fatalf("clean campaign stopped after %d schedules, want the full 16", rep.Schedules)
	}
	if rep.Coverage.Attacked == 0 {
		t.Fatal("campaign attacked no windows")
	}
}

// collectorEnv returns a context whose device.Env hands every device,
// and the campaign's progress events, a fresh sink of coll.
func collectorEnv(coll *obsv.Collector) context.Context {
	return device.WithEnv(context.Background(), device.Env{
		Observe: func() obsv.Tracer { return coll.Tracer() },
	})
}

// TestCampaignMetricsExported checks the obsv wiring end to end: a
// finding campaign must surface schedule, coverage, finding and shrink
// statistics through the standard metrics aggregation, and the device
// events of every run it launches — the probe, each attack schedule
// and each shrink candidate.
func TestCampaignMetricsExported(t *testing.T) {
	spec, wl := campaignCell(t)
	coll := obsv.NewCollector()
	ctx := collectorEnv(coll)
	rep, err := Campaign(ctx, CampaignOptions{
		Strategy: spec,
		Workload: wl,
		Plan:     Plan{NaiveCommit: true},
		Budget:   64,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if rep.Ok() {
		t.Fatal("campaign found nothing; metrics comparison impossible")
	}
	m := coll.Aggregate()
	if got := m.CampaignSchedules; got != uint64(rep.Schedules) {
		t.Errorf("CampaignSchedules = %d, want %d", got, rep.Schedules)
	}
	if got := m.CampaignFrontier; got != uint64(rep.Coverage.Frontier) {
		t.Errorf("CampaignFrontier = %d, want %d", got, rep.Coverage.Frontier)
	}
	if got := m.CampaignAttacked; got != uint64(rep.Coverage.Attacked) {
		t.Errorf("CampaignAttacked = %d, want %d", got, rep.Coverage.Attacked)
	}
	if got := m.CampaignFindings; got != uint64(len(rep.Violations)) {
		t.Errorf("CampaignFindings = %d, want %d", got, len(rep.Violations))
	}
	if m.Verdicts[obsv.ClassTornState] == 0 {
		t.Error("torn-state verdict not counted")
	}
	if m.ShrinkRuns.Count == 0 {
		t.Error("shrink statistics not exported")
	}
	if m.CaseCuts.Count != uint64(len(rep.Violations)) {
		t.Errorf("CaseCuts.Count = %d, want one observation per finding (%d)", m.CaseCuts.Count, len(rep.Violations))
	}
	if want := uint64(1 + rep.Schedules + rep.ShrinkRuns); m.Runs != want {
		t.Errorf("Runs = %d, want the probe plus %d schedules plus %d shrink runs (%d)",
			m.Runs, rep.Schedules, rep.ShrinkRuns, want)
	}
	if m.FaultPowerCuts == 0 {
		t.Error("FaultPowerCuts = 0, want the attack runs' scheduled cuts")
	}
}
