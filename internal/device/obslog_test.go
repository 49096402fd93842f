package device_test

import (
	"reflect"
	"testing"

	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/faults"
	"ehmodel/internal/mem"
	"ehmodel/internal/strategy"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// obslog_test.go — the observation recorder's contracts: attaching
// Config.Record must not change a run's Result in any field, on either
// engine, with or without fault injection; and the log itself must be
// engine-independent, down to every timestamp. The recorder is
// write-only and never changes how a run is batched, so any divergence
// here is a recorder bug.

// Supplies the recorder tests run under.
const (
	supplyClean   = "clean"
	supplyFaulted = "faulted"
	supplyRF      = "rf"
)

func obslogCfg(t *testing.T, stratName, wlName string, eng device.Engine, supply string) (device.Config, device.Strategy, []uint32) {
	t.Helper()
	spec, ok := strategy.Lookup(stratName)
	if !ok {
		t.Fatalf("strategy %s missing", stratName)
	}
	w, ok := workload.Get(wlName)
	if !ok {
		t.Fatalf("workload %s missing", wlName)
	}
	opts := workload.Options{Seg: spec.Seg}
	prog, err := w.Build(opts)
	if err != nil {
		t.Fatalf("build %s: %v", wlName, err)
	}
	pm := energy.MSP430Power()
	e := 20000 * pm.EnergyPerCycle(energy.ClassALU)
	capC, vmax, von, voff := device.FixedSupplyConfig(e)
	cfg := device.Config{
		Prog: prog, Power: pm,
		CapC: capC, CapVMax: vmax, VOn: von, VOff: voff,
		MaxPeriods: 20000, MaxCycles: 2_000_000_000,
		Engine: eng,
	}
	switch supply {
	case supplyFaulted:
		inj, err := faults.New(faults.Plan{
			Seed:                5,
			RandomCutMeanCycles: 7000,
			TornWriteProb:       0.001,
			StaleRestoreProb:    0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
	case supplyRF:
		h, err := energy.NewHarvester(trace.Generate(trace.Spikes, 20, 1e-3, 42), 3000, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Harvester = h
	}
	return cfg, spec.New(), w.Ref(opts)
}

func TestObsLogResultNeutral(t *testing.T) {
	engines := []device.Engine{device.EngineReference, device.EngineBatched}
	for _, stratName := range []string{"timer", "chain", "clank"} {
		for _, wlName := range []string{"sense", "counter"} {
			for _, eng := range engines {
				for _, supply := range []string{supplyClean, supplyFaulted} {
					inject := supply == supplyFaulted
					// An honest fail-stop (e.g. Clank detecting
					// unrecoverable FRAM under injection) is a valid
					// outcome; it too must be recorder-invariant.
					run := func(rec *device.ObsLog) (*device.Result, error) {
						cfg, strat, _ := obslogCfg(t, stratName, wlName, eng, supply)
						cfg.Record = rec
						d, err := device.New(cfg, strat)
						if err != nil {
							t.Fatalf("%s/%s: %v", stratName, wlName, err)
						}
						return d.Run()
					}
					bare, bareErr := run(nil)
					log := &device.ObsLog{}
					recorded, recErr := run(log)
					if (bareErr == nil) != (recErr == nil) ||
						(bareErr != nil && bareErr.Error() != recErr.Error()) {
						t.Fatalf("%s/%s engine=%v inject=%v: recorder changed the error:\nbare: %v\nrec:  %v",
							stratName, wlName, eng, inject, bareErr, recErr)
					}
					if !reflect.DeepEqual(bare, recorded) {
						t.Fatalf("%s/%s engine=%v inject=%v: recorder changed the Result",
							stratName, wlName, eng, inject)
					}
					if bareErr != nil {
						continue
					}
					if len(log.Boots) == 0 || len(log.Commits) == 0 {
						t.Fatalf("%s/%s: empty observation log (boots=%d commits=%d)",
							stratName, wlName, len(log.Boots), len(log.Commits))
					}
					if wlName == "sense" && len(log.Senses) == 0 {
						t.Fatalf("%s/sense: no sense observations recorded", stratName)
					}
				}
			}
		}
	}
}

// allWords watches every word of the default SRAM and FRAM, so every
// data store of a run lands in the log as a HazardStore.
func allWords() map[uint32]struct{} {
	words := make(map[uint32]struct{})
	for a := mem.SRAMBase; a < mem.SRAMBase+mem.DefaultSRAMSize; a += 4 {
		words[a] = struct{}{}
	}
	for a := mem.FRAMBase; a < mem.FRAMBase+mem.DefaultFRAMSize; a += 4 {
		words[a] = struct{}{}
	}
	return words
}

// TestObsLogEngineParity: the whole observation log — boots, senses,
// commits and every watched store, with their cycle timestamps — is
// identical under both engines on clean, fault-injected and harvested
// supplies. The batched engine records from inside its fused settle
// loop, so this pins that loop's per-instruction timestamps to the
// reference engine's.
func TestObsLogEngineParity(t *testing.T) {
	strats := []string{"timer", "chain", "clank", "mementos", "hibernus"}
	wls := []string{"sense", "counter", "crc"}
	if !equivFullMatrix() {
		strats, wls = []string{"timer", "clank", "hibernus"}, []string{"sense", "crc"}
	}
	words := allWords()
	for _, stratName := range strats {
		for _, wlName := range wls {
			for _, supply := range []string{supplyClean, supplyFaulted, supplyRF} {
				stratName, wlName, supply := stratName, wlName, supply
				t.Run(stratName+"/"+wlName+"/"+supply, func(t *testing.T) {
					t.Parallel()
					run := func(eng device.Engine) (*device.ObsLog, *device.Result, error) {
						cfg, strat, _ := obslogCfg(t, stratName, wlName, eng, supply)
						log := &device.ObsLog{HazardWords: words}
						cfg.Record = log
						d, err := device.New(cfg, strat)
						if err != nil {
							t.Fatal(err)
						}
						res, err := d.Run()
						return log, res, err
					}
					refLog, refRes, refErr := run(device.EngineReference)
					batLog, batRes, batErr := run(device.EngineBatched)
					if (refErr == nil) != (batErr == nil) ||
						(refErr != nil && refErr.Error() != batErr.Error()) {
						t.Fatalf("engines disagree on error:\nreference: %v\nbatched:   %v", refErr, batErr)
					}
					if !reflect.DeepEqual(refRes, batRes) {
						t.Fatal("engines disagree on the Result")
					}
					if !reflect.DeepEqual(refLog, batLog) {
						t.Fatalf("observation logs differ: boots %d/%d senses %d/%d commits %d/%d stores %d/%d",
							len(refLog.Boots), len(batLog.Boots), len(refLog.Senses), len(batLog.Senses),
							len(refLog.Commits), len(batLog.Commits), len(refLog.HazardStores), len(batLog.HazardStores))
					}
					if len(refLog.HazardStores) == 0 {
						t.Fatal("no stores recorded with every word watched")
					}
				})
			}
		}
	}
}

// TestObsLogStructure pins the recorder's core invariants on a clean
// sense run: the boot lineage starts cold, sense indices are the
// architectural sequence, every committed sense points at a commit that
// lists it, and committed output grows append-only.
func TestObsLogStructure(t *testing.T) {
	cfg, strat, want := obslogCfg(t, "timer", "sense", device.EngineBatched, supplyClean)
	log := &device.ObsLog{}
	cfg.Record = log
	d, err := device.New(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !reflect.DeepEqual(res.Output, want) {
		t.Fatalf("clean run broken: completed=%v output=%v", res.Completed, res.Output)
	}
	if log.Truncated {
		t.Fatal("clean run truncated the log")
	}
	if !log.Boots[0].Cold || log.Boots[0].Boot != 0 {
		t.Fatalf("first boot not a cold start: %+v", log.Boots[0])
	}
	for i, s := range log.Senses {
		if s.Index != uint32(i) {
			t.Fatalf("sense %d has index %d; clean run must observe the input sequence in order", i, s.Index)
		}
		if s.Committed {
			co := log.Commits[s.Commit]
			found := false
			for _, si := range co.Senses {
				found = found || si == i
			}
			if !found {
				t.Fatalf("sense %d claims commit %d, which does not list it", i, s.Commit)
			}
		}
	}
	base := 0
	var out []uint32
	for i, co := range log.Commits {
		if co.OutBase != base {
			t.Fatalf("commit %d OutBase = %d, want append-only %d", i, co.OutBase, base)
		}
		out = append(out, co.Out...)
		base = len(out)
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("committed output stream %v does not reassemble the result %v", out, want)
	}
}
