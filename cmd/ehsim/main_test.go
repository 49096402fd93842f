package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/faults"
	"ehmodel/internal/profiling"
)

func TestStrategyForAll(t *testing.T) {
	cases := map[string]asm.Segment{
		"timer":          asm.SRAM,
		"speculative":    asm.SRAM,
		"hibernus":       asm.SRAM,
		"mementos":       asm.SRAM,
		"dino":           asm.SRAM,
		"chain":          asm.SRAM,
		"mixvol":         asm.SRAM,
		"clank":          asm.FRAM,
		"ratchet":        asm.FRAM,
		"nvp":            asm.FRAM,
		"nvp-everycycle": asm.FRAM,
		"nvp-threshold":  asm.FRAM,
	}
	for name, wantSeg := range cases {
		s, seg, err := strategyFor(name, 1000)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if s == nil || seg != wantSeg {
			t.Errorf("%s: seg %v, want %v", name, seg, wantSeg)
		}
	}
	if _, _, err := strategyFor("bogus", 0); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestTraceFor(t *testing.T) {
	for _, name := range []string{"", "none"} {
		if _, has, err := traceFor(name, 1); err != nil || has {
			t.Errorf("%q should mean no trace", name)
		}
	}
	for _, name := range []string{"spikes", "ramp", "multipeak"} {
		if _, has, err := traceFor(name, 1); err != nil || !has {
			t.Errorf("%q should resolve", name)
		}
	}
	if _, _, err := traceFor("bogus", 1); err == nil {
		t.Error("unknown trace accepted")
	}
}

func baseOpts(w, s string) runOpts {
	return runOpts{workload: w, strategy: s, period: 20000, tauB: 1000, scale: 1, trace: "none"}
}

func TestRunEndToEnd(t *testing.T) {
	// bench supply
	if err := run(context.Background(), baseOpts("counter", "timer")); err != nil {
		t.Fatalf("bench supply: %v", err)
	}
	// harvested supply on a nonvolatile-memory runtime
	o := baseOpts("ds", "clank")
	o.trace = "multipeak"
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("harvested: %v", err)
	}
}

// TestRunReportsIntoEnvSinks: the single run's device reports into the
// -trace and -metrics sinks the context's environment carries.
func TestRunReportsIntoEnvSinks(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.csv")
	sinks, err := profiling.OpenSinks(tracePath, metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(sinks.WithEnv(context.Background(), device.Env{}), baseOpts("counter", "timer")); err != nil {
		t.Fatal(err)
	}
	if err := sinks.Close(nil); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(strings.Split(string(csv), "\n"), "runs,1") {
		t.Errorf("metrics lack runs,1:\n%s", csv)
	}
	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace holds no events")
	}
}

// TestRunWithFaults drives the CLI path under the default audit attack:
// the run must survive and match the oracle, or fail-stop with the
// typed unrecoverable-state error — never silently diverge.
func TestRunWithFaults(t *testing.T) {
	o := baseOpts("counter", "hibernus")
	o.plan = &faults.Plan{
		Seed:                3,
		RandomCutMeanCycles: 7000,
		TornWriteProb:       1e-3,
		BitFlipRate:         1e-3,
		StaleRestoreProb:    0.05,
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("faulted run: %v", err)
	}
}

func TestRunRejectsBadPlan(t *testing.T) {
	o := baseOpts("counter", "timer")
	o.plan = &faults.Plan{TornWriteProb: 2}
	if err := run(context.Background(), o); err == nil {
		t.Error("invalid fault plan accepted")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), baseOpts("nope", "timer")); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run(context.Background(), baseOpts("counter", "nope")); err == nil {
		t.Error("unknown strategy accepted")
	}
	o := baseOpts("counter", "timer")
	o.trace = "nope"
	if err := run(context.Background(), o); err == nil {
		t.Error("unknown trace accepted")
	}
}
