// Package analyze is the static analysis companion to the simulator:
// it builds a control-flow graph over an assembled EH32 program, runs
// an interval dataflow to resolve load/store addresses, and derives the
// facts an intermittent-computing port needs before a cycle runs —
// write-after-read idempotency hazards (both Clank-sound and per
// checkpoint region), tracking-buffer size bounds, the static τ_store
// Eq. 15 consumes, and a set of lints (uninitialised registers after
// cold boot, dead stores, unreachable code, checkpoint-free store
// loops, calling-convention misuse, guaranteed runtime faults).
//
// The central soundness contract, exercised by the test suite against
// the dynamic fault auditor: every word a strategy.Clank run reports as
// an idempotency violation satisfies Report.HazardWord, at any buffer
// size, watchdog setting or power schedule.
package analyze

import (
	"fmt"

	"ehmodel/internal/asm"
	"ehmodel/internal/isa"
)

// DefaultBoundaries are the SYS codes treated as checkpoint sites for
// the region-scoped analyses: explicit checkpoints (Mementos) and task
// ends (DINO/Chain commit points).
func DefaultBoundaries() []isa.Sys { return []isa.Sys{isa.SysChkpt, isa.SysTaskEnd} }

// program is the front half every pass shares: the CFG, the interval
// fixpoint over it, and every reachable memory access resolved against
// the device memory layout.
type program struct {
	prog *asm.Program
	g    *cfg
	fr   *flowResult
	acc  []*accessInfo // by PC; nil off the reachable loads and stores
}

// prepare validates prog and runs the shared front half. It returns a
// value, not a pointer, so Tasks — which every Alpaca device.New runs —
// allocates no more than the front half itself does.
func prepare(prog *asm.Program) (program, error) {
	if prog == nil || len(prog.Code) == 0 {
		return program{}, fmt.Errorf("analyze: empty program")
	}
	p := program{prog: prog}
	p.g = buildCFG(prog.Code)
	p.fr = runFlow(p.g)
	p.acc = make([]*accessInfo, len(prog.Code))
	for id, b := range p.g.blocks {
		if !p.fr.reach[id] {
			continue
		}
		for pc := b.Start; pc < b.End; pc++ {
			if in := prog.Code[pc]; in.Op.IsLoad() || in.Op.IsStore() {
				p.acc[pc] = resolveAccess(pc, in, p.fr.stateAt[pc])
			}
		}
	}
	return p, nil
}

// Analyze runs the full static analysis over prog.
func Analyze(prog *asm.Program) (*Report, error) {
	p, err := prepare(prog)
	if err != nil {
		return nil, err
	}
	g, fr, acc := p.g, p.fr, p.acc
	boundarySet := make(map[isa.Sys]bool)
	for _, s := range DefaultBoundaries() {
		boundarySet[s] = true
	}

	r := &Report{
		Prog: prog.Name,
		prog: prog,
		syms: buildSymtab(prog),
	}

	// Global (Clank-sound) pass: no clearing at programmer boundaries,
	// because Clank checkpoints at dynamically chosen points.
	global := runWAR(g, acc, nil, nil, false)
	r.Hazards = global.hazards

	// Region-scoped pass for software checkpointing runtimes.
	region := runWAR(g, acc, boundarySet, nil, true)
	r.RegionHazards = region.hazards
	r.Region = RegionStats{
		Hazards:        len(region.hazards),
		PeakReadWords:  region.peakRead,
		PeakWriteWords: region.peakWrite,
	}

	readFoot, storeFoot := footprints(g, fr, acc)
	r.Clank = ClankBound{
		ReadFirstEntries:  readFoot.size(),
		WriteFirstEntries: storeFoot.size(),
	}

	// Membership index for HazardWord.
	r.hazSet = make(map[uint32]struct{})
	for _, h := range r.Hazards {
		if h.Top {
			r.hazTop = true
			break
		}
		for _, w := range h.Words {
			r.hazSet[w] = struct{}{}
		}
	}

	r.Loops = analyzeLoops(g, boundarySet)
	r.lintPass(g, fr, acc, readFoot, noBoundaryBefore(g, boundarySet))
	return r, nil
}
