package profiling

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ehmodel/internal/device"
	"ehmodel/internal/faults"
	"ehmodel/internal/obsv"
	"ehmodel/internal/runner"
	"ehmodel/internal/strategy"
)

// TestSinksEveryDevice: devices built on several workers below the
// wrapped context each get their own Chrome thread and their own
// metrics sink, and Close writes both files with the annotation added.
func TestSinksEveryDevice(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.json")
	sinks, err := OpenSinks(tracePath, metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var specs []strategy.Spec
	for _, name := range []string{"hibernus", "dino"} {
		spec, ok := strategy.Lookup(name)
		if !ok {
			t.Fatalf("%s strategy missing", name)
		}
		specs = append(specs, spec)
	}
	ctx := runner.WithLimit(sinks.WithEnv(context.Background(), device.Env{}), 4)
	rep, err := faults.Audit(ctx, faults.Options{
		Strategies: specs,
		Workloads:  []string{"crc"},
		Schedules:  3,
		BaseSeed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sinks.Close(func(m *obsv.Metrics) {
		m.Event(obsv.Event{Type: obsv.EvVerdict, Arg: uint64(obsv.ClassTornState)})
	})
	if err != nil {
		t.Fatal(err)
	}

	var tr struct {
		TraceEvents []struct {
			Tid int32 `json:"tid"`
		} `json:"traceEvents"`
	}
	readJSON(t, tracePath, &tr)
	tids := map[int32]bool{}
	for _, e := range tr.TraceEvents {
		tids[e.Tid] = true
	}
	if len(tids) != rep.Runs {
		t.Errorf("trace has %d threads, want one per audited run (%d)", len(tids), rep.Runs)
	}
	var m struct {
		Runs     int            `json:"runs"`
		Verdicts map[string]int `json:"verdicts"`
	}
	readJSON(t, metricsPath, &m)
	if m.Runs != rep.Runs {
		t.Errorf("metrics count %d runs, want %d", m.Runs, rep.Runs)
	}
	if m.Verdicts[obsv.ClassTornState.String()] != 1 {
		t.Errorf("annotation missing from the export: verdicts %v", m.Verdicts)
	}
}

// TestSinksOff: with neither file asked for, the environment passes
// through unchanged (devices get no tracer) and Close writes nothing.
func TestSinksOff(t *testing.T) {
	sinks, err := OpenSinks("", "")
	if err != nil {
		t.Fatal(err)
	}
	want := device.Env{Engine: device.EngineReference, RunTimeout: time.Minute}
	env := device.EnvFrom(sinks.WithEnv(context.Background(), want))
	if env.Engine != want.Engine || env.RunTimeout != want.RunTimeout || env.Observe != nil {
		t.Fatalf("env = %+v, want the reference engine, a 1m deadline and no provider", env)
	}
	if err := sinks.Close(func(*obsv.Metrics) { t.Error("annotate called without -metrics") }); err != nil {
		t.Fatal(err)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
