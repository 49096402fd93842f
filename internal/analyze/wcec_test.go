package analyze

import (
	"math"
	"strings"
	"testing"

	"ehmodel/internal/energy"
	"ehmodel/internal/isa"
)

func sysIn(s isa.Sys) isa.Instr { return isa.Instr{Op: isa.SYS, Imm: int32(s)} }

// wcecOpts builds options with the budget expressed in ALU-cycle units
// of the MSP430 power model, the same convention ehlint -emax uses.
func wcecOpts(budgetCycles float64) WCECOptions {
	pm := energy.MSP430Power()
	return WCECOptions{Power: pm, BudgetJ: budgetCycles * pm.EnergyPerCycle(energy.ClassALU)}
}

// countedLoop is the classic ten-iteration counted store loop:
//
//	0: ADDI r2,r0,10
//	1: SW   r2,0(r0)    <- loop header
//	2: ADDI r2,r2,-1
//	3: BNE  r2,r0,-2
//	4: halt
func countedLoop(t *testing.T) []isa.Instr {
	t.Helper()
	return []isa.Instr{
		{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R0, Imm: 10},
		{Op: isa.SW, Rd: isa.R2, Rs1: isa.R0, Imm: 0},
		{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R2, Imm: -1},
		{Op: isa.BNE, Rd: isa.R2, Rs1: isa.R0, Imm: -2},
		halt(),
	}
}

func TestWCECCountedLoop(t *testing.T) {
	p := rawProg(t, "counted", countedLoop(t)...)
	tbl, err := WCEC(p, wcecOpts(1000))
	if err != nil {
		t.Fatalf("WCEC: %v", err)
	}
	if tbl.Mode != WCECCheckpoint || len(tbl.Regions) != 1 {
		t.Fatalf("want 1 checkpoint region, got mode=%s regions=%d", tbl.Mode, len(tbl.Regions))
	}
	r := tbl.Regions[0]
	if r.Entry != 0 || r.Kind != TaskEntry {
		t.Fatalf("region = %+v, want entry 0 kind %q", r, TaskEntry)
	}
	// Ten induction-variable updates bound the completed iterations at
	// 10 (one of slack over the 9 complete back-edge cycles — the bound
	// counts update executions): entry ADDI (1) + 10·(SW 2 + ADDI 1 +
	// BNE taken 2) + exit suffix (SW 2 + ADDI 1 + BNE fall 1) + halt 1.
	const wantWC = 1 + 10*5 + 4 + 1
	if r.WCUnbounded || r.WCCycles != wantWC {
		t.Fatalf("WC = %d (unbounded=%v), want %d", r.WCCycles, r.WCUnbounded, wantWC)
	}
	// Cheapest commit: ADDI + one SW + ADDI + BNE fall + halt.
	const wantBC = 1 + 2 + 1 + 1 + 1
	if r.BCUnbounded || r.BCCycles != wantBC {
		t.Fatalf("BC = %d (unbounded=%v), want %d", r.BCCycles, r.BCUnbounded, wantBC)
	}
	pm := energy.MSP430Power()
	alu, mem := pm.EnergyPerCycle(energy.ClassALU), pm.EnergyPerCycle(energy.ClassMem)
	// 11 SW executions are mem-class (22 cycles); the rest ALU.
	wantWCE := 22*mem + float64(wantWC-22)*alu
	if math.Abs(r.WCEnergy-wantWCE) > 1e-15 {
		t.Fatalf("WCE = %g, want %g", r.WCEnergy, wantWCE)
	}
	if r.Verdict != WCECCertified {
		t.Fatalf("verdict %s, want certified at a 1000-cycle budget", r.Verdict)
	}
	if len(tbl.Repair) != 0 || !tbl.RepairComplete {
		t.Fatalf("feasible table should have empty complete repair, got %v complete=%v",
			tbl.Repair, tbl.RepairComplete)
	}
}

func TestWCECVerdictThresholds(t *testing.T) {
	p := rawProg(t, "counted", countedLoop(t)...)
	// Budget between BCE and WCE: the worst path overruns, some fit.
	tbl, err := WCEC(p, wcecOpts(30))
	if err != nil {
		t.Fatalf("WCEC: %v", err)
	}
	if v := tbl.Regions[0].Verdict; v != WCECUnknown {
		t.Fatalf("verdict %s at 30 cycles, want unknown", v)
	}
	// A cut at the loop header makes every region a single iteration.
	if !tbl.RepairComplete || len(tbl.Repair) != 1 || tbl.Repair[0] != 1 {
		t.Fatalf("repair = %v complete=%v, want [1] complete", tbl.Repair, tbl.RepairComplete)
	}

	// Budget below even the cheapest commit: livelock.
	tbl, err = WCEC(p, wcecOpts(3))
	if err != nil {
		t.Fatalf("WCEC: %v", err)
	}
	if v := tbl.Regions[0].Verdict; v != WCECLivelock {
		t.Fatalf("verdict %s at 3 cycles, want livelock", v)
	}
	if fl := tbl.FirstLivelock(); fl == nil || fl.Entry != 0 {
		t.Fatalf("FirstLivelock = %+v, want entry 0", fl)
	}
	c, l, u := tbl.VerdictCounts()
	if c != 0 || l != 1 || u != 0 {
		t.Fatalf("VerdictCounts = %d/%d/%d, want 0/1/0", c, l, u)
	}
}

func TestWCECUnboundedNoCommit(t *testing.T) {
	// An unconditional self-jump with no reachable commit: both bounds
	// must report unbounded (∞), never a wrapped figure, and the verdict
	// is livelock at any budget. (A conditional spin would not do: the
	// path-insensitive best case may follow the infeasible fall-through
	// to a commit, which weakens the verdict to unknown — sound, just
	// not this test.)
	p := rawProg(t, "spin",
		isa.Instr{Op: isa.ADDI, Rd: isa.R1, Rs1: isa.R0, Imm: 1},
		isa.Instr{Op: isa.JAL, Rd: isa.R0, Imm: 1}, // pc1 -> pc1 (absolute target)
		halt(),
	)
	tbl, err := WCEC(p, wcecOpts(1e12))
	if err != nil {
		t.Fatalf("WCEC: %v", err)
	}
	r := tbl.Regions[0]
	if !r.WCUnbounded || !r.BCUnbounded {
		t.Fatalf("want both bounds unbounded, got WC=%v BC=%v", r.WCUnbounded, r.BCUnbounded)
	}
	if !math.IsInf(r.WCEnergy, 1) || !math.IsInf(r.BCEnergy, 1) {
		t.Fatalf("want +Inf energies, got %g / %g", r.WCEnergy, r.BCEnergy)
	}
	if r.Verdict != WCECLivelock {
		t.Fatalf("verdict %s, want livelock", r.Verdict)
	}
	// Repair cuts at the loop header, committing each iteration.
	if !tbl.RepairComplete || len(tbl.Repair) != 1 || tbl.Repair[0] != 1 {
		t.Fatalf("repair = %v complete=%v, want [1] complete", tbl.Repair, tbl.RepairComplete)
	}
}

func TestWCECDataDependentTrips(t *testing.T) {
	// The trip count depends on a sensor read the intervals cannot
	// bound: the worst case is unbounded but a commit is reachable, so
	// with an adequate budget the verdict is unknown, not livelock.
	p := rawProg(t, "sense-loop",
		isa.Instr{Op: isa.SYS, Rd: isa.R2, Imm: int32(isa.SysSense)},
		isa.Instr{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R2, Imm: -1},
		isa.Instr{Op: isa.BNE, Rd: isa.R2, Rs1: isa.R0, Imm: -1},
		halt(),
	)
	tbl, err := WCEC(p, wcecOpts(1000))
	if err != nil {
		t.Fatalf("WCEC: %v", err)
	}
	r := tbl.Regions[0]
	if !r.WCUnbounded {
		t.Fatalf("data-dependent loop must be unbounded, got WC=%d", r.WCCycles)
	}
	if r.BCUnbounded || r.BCCycles != 1+1+1+1 {
		t.Fatalf("BC = %d (unbounded=%v), want 4", r.BCCycles, r.BCUnbounded)
	}
	if r.Verdict != WCECUnknown {
		t.Fatalf("verdict %s, want unknown", r.Verdict)
	}
}

func TestWCECCheckpointSiteSplitsRegions(t *testing.T) {
	// A checkpoint site inside the loop body: executing it ends the
	// region, so no region contains the cycle and all bounds are finite
	// even though the loop's trip count is irrelevant.
	p := rawProg(t, "chkpt-loop",
		isa.Instr{Op: isa.ADDI, Rd: isa.R1, Rs1: isa.R0, Imm: 5},
		sysIn(isa.SysChkpt), // pc1
		isa.Instr{Op: isa.ADDI, Rd: isa.R1, Rs1: isa.R1, Imm: -1},
		isa.Instr{Op: isa.BNE, Rd: isa.R1, Rs1: isa.R0, Imm: -2}, // -> pc1
		halt(),
	)
	tbl, err := WCEC(p, wcecOpts(1000))
	if err != nil {
		t.Fatalf("WCEC: %v", err)
	}
	if len(tbl.Regions) != 2 {
		t.Fatalf("want 2 regions, got %d", len(tbl.Regions))
	}
	r0 := tbl.RegionAt(0)
	if r0 == nil || r0.WCUnbounded || r0.WCCycles != 1+1 {
		t.Fatalf("region 0 = %+v, want WC 2", r0)
	}
	r2 := tbl.RegionAt(2)
	if r2 == nil || r2.Kind != WCECChkpt {
		t.Fatalf("region at 2 = %+v, want kind %q", r2, WCECChkpt)
	}
	// Worst path: ADDI + BNE taken + the site SYS itself (4) beats
	// ADDI + BNE fall + halt (3).
	if r2.WCUnbounded || r2.WCCycles != 1+2+1 {
		t.Fatalf("region 2 WC = %d (unbounded=%v), want 4", r2.WCCycles, r2.WCUnbounded)
	}
	for _, r := range tbl.Regions {
		if r.Verdict != WCECCertified {
			t.Fatalf("region %d verdict %s, want certified", r.ID, r.Verdict)
		}
	}
}

func TestWCECNestedLoopsBranchRefined(t *testing.T) {
	// Nested counted loops whose trip counts only the branch-refined
	// intervals can bound: inner 3 iterations, outer 4.
	p := rawProg(t, "nested",
		isa.Instr{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R0, Imm: 4},  // 0
		isa.Instr{Op: isa.ADDI, Rd: isa.R3, Rs1: isa.R0, Imm: 3},  // 1 outer header
		isa.Instr{Op: isa.ADDI, Rd: isa.R3, Rs1: isa.R3, Imm: -1}, // 2 inner header
		isa.Instr{Op: isa.BNE, Rd: isa.R3, Rs1: isa.R0, Imm: -1},  // 3 -> 2
		isa.Instr{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R2, Imm: -1}, // 4
		isa.Instr{Op: isa.BNE, Rd: isa.R2, Rs1: isa.R0, Imm: -4},  // 5 -> 1
		halt(), // 6
	)
	tbl, err := WCEC(p, wcecOpts(1e6))
	if err != nil {
		t.Fatalf("WCEC: %v", err)
	}
	r := tbl.Regions[0]
	// Inner cycle: ADDI+BNE taken = 3 cycles × 3 trips + exit suffix
	// (ADDI 1 + BNE fall 1) = 11 cycles per inner-loop execution.
	// Outer cycle: ADDI(1) + inner(11) + ADDI(1) + BNE taken(2) = 15
	// × 4 trips + exit suffix (13 + BNE fall 1) = 74; entry ADDI and
	// halt add one each.
	const wantWC = 1 + 4*15 + 14 + 1
	if r.WCUnbounded || r.WCCycles != wantWC {
		t.Fatalf("WC = %d (unbounded=%v), want %d", r.WCCycles, r.WCUnbounded, wantWC)
	}
	if r.Verdict != WCECCertified {
		t.Fatalf("verdict %s, want certified", r.Verdict)
	}
}

func TestWCECTaskMode(t *testing.T) {
	// A WAR hazard (load then store to the same FRAM word) forces a
	// task-boundary cut before the store; the cut commits *before* the
	// PC executes, so the store belongs to the next region.
	p := rawProg(t, "war-cut",
		luiFRAM(isa.R1),
		isa.Instr{Op: isa.LW, Rd: isa.R2, Rs1: isa.R1, Imm: 0},
		isa.Instr{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R2, Imm: 1},
		isa.Instr{Op: isa.SW, Rd: isa.R2, Rs1: isa.R1, Imm: 0},
		halt(),
	)
	tt, err := Tasks(p, Options{})
	if err != nil {
		t.Fatalf("Tasks: %v", err)
	}
	if len(tt.Boundaries) == 0 {
		t.Fatalf("expected a WAR-cut boundary, got none (tasks=%d)", len(tt.Tasks))
	}
	tbl, err := WCEC(p, WCECOptions{Mode: WCECTask, Power: energy.MSP430Power(),
		BudgetJ: wcecOpts(1000).BudgetJ})
	if err != nil {
		t.Fatalf("WCEC task mode: %v", err)
	}
	if tbl.Mode != WCECTask {
		t.Fatalf("mode = %s", tbl.Mode)
	}
	cut := tt.Boundaries[0]
	rc := tbl.RegionAt(cut)
	if rc == nil || rc.Kind != TaskWARCut {
		t.Fatalf("no %q region at cut %d: %+v", TaskWARCut, cut, tbl.Regions)
	}
	r0 := tbl.RegionAt(0)
	if r0 == nil {
		t.Fatalf("no region at entry 0")
	}
	// Region 0 ends on the edge *into* the cut: the cut instruction's
	// own cost belongs to the cut region.
	wantR0 := uint64(0)
	for pc := 0; pc < cut; pc++ {
		wantR0 += uint64(1)
		if p.Code[pc].Op.IsLoad() || p.Code[pc].Op.IsStore() {
			wantR0++ // mem ops cost 2
		}
	}
	if r0.WCUnbounded || r0.WCCycles != wantR0 {
		t.Fatalf("region 0 WC = %d, want %d (cut-before at %d)", r0.WCCycles, wantR0, cut)
	}
}

// TestWCECStringRoundTrip pins how the text table renders an unbounded
// region: "unbounded" cycles and "inf" joules, never a wrapped figure.
func TestWCECStringRoundTrip(t *testing.T) {
	p := rawProg(t, "spin",
		isa.Instr{Op: isa.BEQ, Rd: isa.R0, Rs1: isa.R0, Imm: 0},
		halt(),
	)
	tbl, err := WCEC(p, wcecOpts(10))
	if err != nil {
		t.Fatalf("WCEC: %v", err)
	}
	s := tbl.String()
	if !strings.Contains(s, "wc=unbounded") || !strings.Contains(s, "wce=inf") {
		t.Fatalf("serialization lacks unbounded markers:\n%s", s)
	}
}

func TestWCECJSONUnbounded(t *testing.T) {
	p := rawProg(t, "spin",
		isa.Instr{Op: isa.BEQ, Rd: isa.R0, Rs1: isa.R0, Imm: 0},
		halt(),
	)
	tbl, err := WCEC(p, wcecOpts(10))
	if err != nil {
		t.Fatalf("WCEC: %v", err)
	}
	js, err := tbl.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if !strings.Contains(string(js), `"wc_cycles": null`) {
		t.Fatalf("unbounded cycles should marshal as null:\n%s", js)
	}
}
