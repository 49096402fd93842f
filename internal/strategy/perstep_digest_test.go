package strategy_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/faults"
	"ehmodel/internal/strategy"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// TestPerStepResultDigests pins the bits of the per-step protocol that
// both engines share — stepOnce, consume and idleToDeath — which the
// engine-equivalence oracle cannot see change, since a change there
// moves both engines alike. Clank and Alpaca take PreStep on every
// instruction, so they run through stepOnce from start to finish;
// Hibernus's post-backup sleep runs the idle loop. Each runs crc on a
// bench supply, a harvested multipeak trace and a fault plan without
// bit flips (Clank fail-stops on those by design), under both engines,
// and the SHA-256 of its JSON Result must equal the digest recorded
// before the per-step path was last rewritten. A mismatch means the
// simulator's output moved: find out why, do not re-record.
func TestPerStepResultDigests(t *testing.T) {
	want := map[string]string{
		"clank/bench":      "161646340130d7fcf0f7565c77bea5ad4963eed75541972204b2b1142c65018c",
		"clank/harvest":    "d0f9edcd3a9ef5354cf321e6c92147910fe77842ff9134e092729c8f93bf4191",
		"clank/fault":      "ef9165a5fec180a49b3c14aedebbc0161ec5584b957d21cf2f46fd4f396caf67",
		"alpaca/bench":     "74c355d85e5f3fb1e098580029b905ae6e9874136868423570cf354828bece8a",
		"alpaca/harvest":   "b78b77feae6b2c8aa112b918e1c32b908484a34c5b9b46265313789413aecca8",
		"alpaca/fault":     "7125cbf355a8f78673d3f0a6188ef4f7d2f94ce51896f87e504048a5e71adcc2",
		"hibernus/bench":   "69d7e0746464be3ab53b5169ff7a012ca84e8d36a535a6dd191e344cded5cb29",
		"hibernus/harvest": "ce6001628f8547c9cfb04bd6709af55b50c65230091ccde78be9a1e08feff8a2",
		"hibernus/fault":   "3e042e84f1b378aaba339ee4085abeb3f9ada0b651336f39738b92df19a758e3",
	}
	w, _ := workload.Get("crc")
	tr := trace.Generate(trace.MultiPeak, 20, 1e-3, 5)
	supplies := []struct {
		name   string
		energy float64 // per-period energy in ALU cycles
		attach func(*device.Config) error
	}{
		{"bench", 20000, func(*device.Config) error { return nil }},
		{"harvest", 6000, func(c *device.Config) (err error) {
			c.Harvester, err = energy.NewHarvester(tr, 3000, 0.7)
			return err
		}},
		{"fault", 20000, func(c *device.Config) (err error) {
			c.Faults, err = faults.New(faults.Plan{Seed: 3, RandomCutMeanCycles: 10_000, TornWriteProb: 0.01})
			return err
		}},
	}
	for _, name := range []string{"clank", "alpaca", "hibernus"} {
		spec, ok := strategy.Lookup(name)
		if !ok {
			t.Fatalf("strategy %q missing from the catalog", name)
		}
		prog, err := w.Build(workload.Options{Seg: spec.Seg, Scale: 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range supplies {
			label := name + "/" + s.name
			for _, eng := range []device.Engine{device.EngineBatched, device.EngineReference} {
				cfg := fixedCfg(prog, s.energy)
				cfg.Engine = eng
				if err := s.attach(&cfg); err != nil {
					t.Fatal(err)
				}
				d, err := device.New(cfg, spec.New())
				if err != nil {
					t.Fatal(err)
				}
				res, err := d.Run()
				if err != nil {
					t.Fatalf("%s (%v): %v", label, eng, err)
				}
				if !res.Completed {
					t.Errorf("%s (%v): did not complete in %d periods", label, eng, len(res.Periods))
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != want[label] {
					t.Errorf("%s (%v): Result digest %s, want %s", label, eng, got, want[label])
				}
			}
		}
	}
}
