package main

import (
	"context"
	"errors"
	"strings"
)

// simScale sizes each supply class's workloads so one pass over the
// class matrix takes about a quarter of a second on the calibration
// machine: long enough for several power cycles per cell, short enough
// for dozens of passes per run.
var simScale = map[string]int{"bench": 60, "harvest": 10, "fault": 30}

// simFailure is the failure of one simulation run, or nil.
func simFailure(s simRun) error {
	if s.Err != nil {
		return s.Err
	}
	if !s.Completed {
		return errors.New("run did not complete")
	}
	return nil
}

// simMatrix builds one class's cells without the excluded ones.
func simMatrix(class string, seed int64) ([]simCell, error) {
	all, err := buildSimMatrix(class, seed, simScale[class])
	if err != nil {
		return nil, err
	}
	var cells []simCell
	for _, c := range all {
		if !simExcluded(c.Label) {
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// simExcluded reports the cells left out of the matrix. Under the fault
// plan, Clank (which keeps its data in FRAM) fail-stops with
// ErrUnrecoverable whenever a bit flip forces a cold restart after FRAM
// stores, and DINO runs out of its period budget when random cuts land
// inside its tasks faster than they complete: both are the runtimes
// behaving as designed, not runs to time.
func simExcluded(label string) bool {
	return strings.HasPrefix(label, "fault/clank/") || strings.HasPrefix(label, "fault/dino/")
}

// simPassResult sums one pass over a class matrix.
type simPassResult struct {
	hostNS           int64 // Σ device.New + Device.Run time
	cycles           uint64
	periods, backups int
	runs             []simRun
}

// simPass runs every cell once on one thread and checks each Result
// against want (label → digest); cells missing from want are recorded
// into it, so the first pass at a seed without golden digests becomes
// the reference the later passes must reproduce.
func simPass(ctx context.Context, r *result, cells []simCell, want map[string]string, countAllocs bool) simPassResult {
	var p simPassResult
	for _, c := range cells {
		s := runSim(ctx, c, engineBatched, countAllocs)
		p.runs = append(p.runs, s)
		p.hostNS += s.NewNS + s.RunNS
		p.cycles += s.Cycles
		p.periods += s.Periods
		p.backups += s.Backups
		ok := true
		if err := simFailure(s); err != nil {
			ok = r.check("sim.runs_complete", false, "%s: %v", c.Label, err)
		} else if w, seen := want[c.Label]; !seen {
			want[c.Label] = s.Digest
		} else {
			ok = r.check("sim.result_digest", s.Digest == w, "%s", c.Label)
		}
		r.attempt(ok)
	}
	return p
}

// msPerMcycle is host milliseconds per simulated megacycle.
func (p simPassResult) msPerMcycle() float64 {
	return float64(p.hostNS) / 1e6 / (float64(p.cycles) / 1e6)
}

// passSeed derives pass i's input seed from the run seed. Pass 0 uses
// the run seed itself, so seed 1's first pass is the golden one. Drawing
// fresh traces and fault plans for every pass makes a run's median cost
// an average over dozens of supply draws, so it depends little on which
// seed the run was given.
func passSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// simWant returns the digests pass 0 must reproduce: the golden ones
// where they apply (every seed for the seed-independent bench class,
// seed 1 for the others), otherwise an empty map the first run of pass 0
// fills, which later runs of pass 0 must then reproduce.
func simWant(g *golden, class string, seed int64, cells []simCell) (map[string]string, bool) {
	want := map[string]string{}
	if class != "bench" && seed != 1 {
		return want, false
	}
	for _, c := range cells {
		if d, ok := g.Sim[c.Label]; ok {
			want[c.Label] = d
		}
	}
	return want, true
}

func simWorkload(class string) func(ctx context.Context, e *env, r *result) error {
	return func(ctx context.Context, e *env, r *result) error {
		var cells0 []simCell
		var want map[string]string
		// Set-up builds pass 0's matrix and runs it once; repetitions after
		// the first check that pass 0 reproduces its digests.
		if err := setupPhase(e, r, walkTick, func() error {
			var err error
			if cells0, err = simMatrix(class, passSeed(e.seed, 0)); err != nil {
				return err
			}
			if want == nil {
				var isGolden bool
				want, isGolden = simWant(e.golden, class, e.seed, cells0)
				if isGolden {
					r.check("sim.golden_covers_matrix", len(want) == len(cells0),
						"%d of %d cells have golden digests", len(want), len(cells0))
				}
			}
			simPass(ctx, r, cells0, want, false)
			return nil
		}); err != nil {
			return err
		}
		pass := 0
		ops, err := timedLoop(ctx, e, walkTick, func() (float64, error) {
			pass++
			cells, err := simMatrix(class, passSeed(e.seed, pass))
			if err != nil {
				return 0, err
			}
			check := map[string]string{}
			if class == "bench" {
				check = want
			}
			return simPass(ctx, r, cells, check, false).msPerMcycle(), nil
		})
		if err != nil {
			return err
		}
		spotCheckReference(ctx, r, cells0[0], want)
		setOps(r, ops, walkTick.name)
		return nil
	}
}

// spotCheckReference reruns one cell under the reference engine, the
// trust anchor the batched engine must match bit for bit.
func spotCheckReference(ctx context.Context, r *result, c simCell, want map[string]string) {
	s := runSim(ctx, c, engineReference, false)
	ok := simFailure(s) == nil && s.Digest == want[c.Label]
	r.attempt(r.check("sim.reference_engine_agrees", ok, "%s", c.Label))
}
