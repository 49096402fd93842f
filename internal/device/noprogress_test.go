package device

import (
	"errors"
	"strings"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/energy"
)

// livelockConfig is a fixed supply too small for the program to reach
// its first backup: every charge replays the same doomed prefix.
func livelockConfig(t *testing.T, prog *asm.Program, cycles float64) Config {
	t.Helper()
	pm := energy.MSP430Power()
	cfg := fixedConfig(t, prog, cycles*pm.EnergyPerCycle(energy.ClassALU))
	cfg.MaxPeriods = 10000
	cfg.DetectLivelock = true
	return cfg
}

// TestDetectLivelock exercises the dynamic no-progress diagnosis: with
// detection on, a repeating doomed charge fails fast with the region
// entry, death PC and cycles-since-commit; with detection off, the run
// grinds to MaxPeriods as before.
func TestDetectLivelock(t *testing.T) {
	prog := loopProgram(t, 1000, asm.SRAM)
	d, err := New(livelockConfig(t, prog, 8), nullStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Run()
	var np *NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("want NoProgressError, got %v", err)
	}
	if !np.Livelock {
		t.Fatalf("want a livelock diagnosis, got %+v", np)
	}
	// Exactly-repeating periods are provable after two observations.
	if np.Periods < 2 || np.Periods > 3 {
		t.Errorf("detected after %d periods, want 2–3", np.Periods)
	}
	if np.SinceCommit == 0 {
		t.Error("diagnosis lost the cycles-since-commit figure")
	}
	// The region entry names where every doomed charge starts: with no
	// checkpoint ever taken, that is the program entry.
	if np.RegionEntry != 0 {
		t.Errorf("region entry = %d, want 0 (cold boot)", np.RegionEntry)
	}
	msg := np.Error()
	for _, want := range []string{"livelock", "region entry=0", "PC", "cycles since last commit"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q lacks %q", msg, want)
		}
	}

	// Default-off: the same config without detection keeps the old
	// grind-to-the-limit behavior.
	cfg := livelockConfig(t, prog, 8)
	cfg.DetectLivelock = false
	d, err = New(cfg, nullStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatalf("detection off must not fail the run: %v", err)
	}
	if res.Completed || len(res.Periods) != cfg.MaxPeriods {
		t.Fatalf("want a full %d-period grind, got completed=%v periods=%d",
			cfg.MaxPeriods, res.Completed, len(res.Periods))
	}
}

// TestDetectLivelockSparesProgress makes sure the detector never trips
// on a run that is actually progressing: the same program with a
// per-charge budget big enough to advance commits periodically and
// completes.
func TestDetectLivelockSparesProgress(t *testing.T) {
	prog := loopProgram(t, 200, asm.SRAM)
	cfg := livelockConfig(t, prog, 600)
	d, err := New(cfg, intervalStrategy{k: 100})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatalf("progressing run diagnosed as livelock: %v", err)
	}
	if !res.Completed {
		t.Fatalf("did not complete: %d periods", len(res.Periods))
	}
}

// TestDetectLivelockIgnoresHarvester documents the detector's guard: a
// harvester-driven supply recharges differently every period, so an
// exact repeat is not provably doomed and detection stays out of the
// way (the stall heuristic in Run handles that regime).
func TestDetectLivelockIgnoresHarvester(t *testing.T) {
	prog := loopProgram(t, 50, asm.SRAM)
	cfg := livelockConfig(t, prog, 8)
	d, err := New(cfg, nullStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	d.resetFixedPoint()
	if !d.ff.eligible {
		t.Fatal("a bench supply must run the fixed-point test under DetectLivelock")
	}
	d.cfg.Harvester = &energy.Harvester{}
	d.resetFixedPoint()
	if d.ff.eligible {
		t.Fatal("harvester-driven supply must not diagnose livelock")
	}
}
