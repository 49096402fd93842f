package analyze

import (
	"strings"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/isa"
	"ehmodel/internal/mem"
	"ehmodel/internal/workload"
)

// rawProg hand-assembles an instruction sequence, bypassing the Builder
// so tests can exercise encodings the Builder refuses to emit.
func rawProg(t *testing.T, name string, code ...isa.Instr) *asm.Program {
	t.Helper()
	words := make([]uint32, len(code))
	for i, in := range code {
		w, err := in.Encode()
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		words[i] = w
	}
	return &asm.Program{Name: name, Code: code, Words: words}
}

func mustAnalyze(t *testing.T, p *asm.Program) *Report {
	t.Helper()
	r, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze(%s): %v", p.Name, err)
	}
	return r
}

func findKind(r *Report, k Kind) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Kind == k {
			out = append(out, f)
		}
	}
	return out
}

func halt() isa.Instr { return isa.Instr{Op: isa.SYS, Imm: int32(isa.SysHalt)} }

// luiFRAM materialises mem.FRAMBase (0x20000 = 8<<14) in one LUI.
func luiFRAM(rd isa.Reg) isa.Instr { return isa.Instr{Op: isa.LUI, Rd: rd, Imm: 8} }

func TestUninitReadLint(t *testing.T) {
	p := rawProg(t, "uninit",
		isa.Instr{Op: isa.ADD, Rd: isa.R2, Rs1: isa.R3, Rs2: isa.R4},
		halt(),
	)
	r := mustAnalyze(t, p)
	fs := findKind(r, KindUninitRead)
	if len(fs) != 2 {
		t.Fatalf("want 2 uninit-read findings (r3, r4), got %d: %+v", len(fs), fs)
	}
	for _, f := range fs {
		if f.Sev != SevError || f.PC != 0 {
			t.Errorf("finding %+v: want error severity at pc 0", f)
		}
	}
}

func TestNoUninitAfterWrite(t *testing.T) {
	p := rawProg(t, "init-ok",
		isa.Instr{Op: isa.ADDI, Rd: isa.R3, Rs1: isa.R0, Imm: 7},
		isa.Instr{Op: isa.ADD, Rd: isa.R2, Rs1: isa.R3, Rs2: isa.R0},
		halt(),
	)
	r := mustAnalyze(t, p)
	if fs := findKind(r, KindUninitRead); len(fs) != 0 {
		t.Fatalf("unexpected uninit findings: %+v", fs)
	}
}

func TestInvalidSysLint(t *testing.T) {
	p := rawProg(t, "badsys",
		isa.Instr{Op: isa.SYS, Imm: 40},
		halt(),
	)
	r := mustAnalyze(t, p)
	fs := findKind(r, KindBadSys)
	if len(fs) != 1 || fs[0].Sev != SevError {
		t.Fatalf("want one invalid-sys error, got %+v", fs)
	}
}

func TestBadTargetLint(t *testing.T) {
	p := rawProg(t, "badtarget",
		isa.Instr{Op: isa.BEQ, Rd: isa.R0, Rs1: isa.R0, Imm: 100},
		halt(),
	)
	r := mustAnalyze(t, p)
	if fs := findKind(r, KindBadTarget); len(fs) != 1 {
		t.Fatalf("want one bad-branch-target finding, got %+v", fs)
	}
}

func TestUnreachableLint(t *testing.T) {
	p := rawProg(t, "unreach",
		isa.Instr{Op: isa.JAL, Rd: isa.R0, Imm: 2},
		isa.Instr{Op: isa.ADDI, Rd: isa.R1, Rs1: isa.R0, Imm: 5},
		halt(),
	)
	r := mustAnalyze(t, p)
	fs := findKind(r, KindUnreachable)
	if len(fs) != 1 || fs[0].PC != 1 {
		t.Fatalf("want unreachable finding at pc 1, got %+v", fs)
	}
}

func TestCallConventionLint(t *testing.T) {
	p := rawProg(t, "callconv",
		isa.Instr{Op: isa.JAL, Rd: isa.R3, Imm: 1},
		halt(),
	)
	r := mustAnalyze(t, p)
	fs := findKind(r, KindCallConv)
	if len(fs) != 1 || fs[0].Sev != SevWarn {
		t.Fatalf("want one calling-convention warning for jal r3, got %+v", fs)
	}
}

func TestMisalignedLint(t *testing.T) {
	p := rawProg(t, "misaligned",
		isa.Instr{Op: isa.ADDI, Rd: isa.R1, Rs1: isa.R0, Imm: 2},
		isa.Instr{Op: isa.LW, Rd: isa.R2, Rs1: isa.R1},
		halt(),
	)
	r := mustAnalyze(t, p)
	if fs := findKind(r, KindMisaligned); len(fs) != 1 {
		t.Fatalf("want one misaligned finding, got %+v", fs)
	}
}

func TestOutOfBoundsLint(t *testing.T) {
	p := rawProg(t, "oob",
		isa.Instr{Op: isa.LUI, Rd: isa.R1, Imm: 24}, // 0x60000: one past FRAM end
		isa.Instr{Op: isa.LW, Rd: isa.R2, Rs1: isa.R1},
		halt(),
	)
	r := mustAnalyze(t, p)
	if fs := findKind(r, KindOOB); len(fs) != 1 {
		t.Fatalf("want one out-of-bounds finding, got %+v", fs)
	}
}

func TestDeadStoreLint(t *testing.T) {
	p := rawProg(t, "deadstore",
		luiFRAM(isa.R1),
		isa.Instr{Op: isa.SW, Rd: isa.R0, Rs1: isa.R1},
		halt(),
	)
	r := mustAnalyze(t, p)
	if fs := findKind(r, KindDeadStore); len(fs) != 1 || fs[0].PC != 1 {
		t.Fatalf("want one dead-store finding at pc 1, got %+v", fs)
	}
}

func TestLoopWithoutCheckpointLint(t *testing.T) {
	p := rawProg(t, "storeloop",
		luiFRAM(isa.R1),
		isa.Instr{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R0, Imm: 10},
		// loop: sw; addi -1; bne r2, r0, loop
		isa.Instr{Op: isa.SW, Rd: isa.R0, Rs1: isa.R1},
		isa.Instr{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R2, Imm: -1},
		isa.Instr{Op: isa.BNE, Rd: isa.R2, Rs1: isa.R0, Imm: -2},
		halt(),
	)
	r := mustAnalyze(t, p)
	if fs := findKind(r, KindLoopNoBoundary); len(fs) != 1 {
		t.Fatalf("want one loop-without-checkpoint finding, got %+v", fs)
	}
	// The loop is a simple cycle: sw(2) + addi(1) + bne taken(2) = 5
	// cycles around, one store.
	ts, ok := r.TauStore()
	if !ok || ts != 5 {
		t.Fatalf("TauStore = %v, %v; want 5, true", ts, ok)
	}
}

func TestWARBeforeFirstCheckpoint(t *testing.T) {
	p := rawProg(t, "war-boot",
		luiFRAM(isa.R1),
		isa.Instr{Op: isa.LW, Rd: isa.R2, Rs1: isa.R1},
		isa.Instr{Op: isa.SW, Rd: isa.R2, Rs1: isa.R1},
		halt(),
	)
	r := mustAnalyze(t, p)
	if fs := findKind(r, KindWARBoot); len(fs) != 1 || fs[0].PC != 2 {
		t.Fatalf("want war-before-first-checkpoint at pc 2, got %+v", fs)
	}
	if !r.HazardWord(mem.FRAMBase) {
		t.Error("HazardWord(FRAMBase) = false, want true")
	}
	if r.HazardWord(mem.FRAMBase + 4) {
		t.Error("HazardWord(FRAMBase+4) = true, want false")
	}
}

func TestCheckpointClearsRegionButNotGlobal(t *testing.T) {
	p := rawProg(t, "war-chkpt",
		luiFRAM(isa.R1),
		isa.Instr{Op: isa.LW, Rd: isa.R2, Rs1: isa.R1},
		isa.Instr{Op: isa.SYS, Imm: int32(isa.SysChkpt)},
		isa.Instr{Op: isa.SW, Rd: isa.R2, Rs1: isa.R1},
		halt(),
	)
	r := mustAnalyze(t, p)
	if len(r.RegionHazards) != 0 {
		t.Fatalf("checkpoint should clear region state, got %+v", r.RegionHazards)
	}
	// Clank may checkpoint anywhere, so the read still reaches the store.
	if len(r.Hazards) != 1 || r.Hazards[0].PC != 3 {
		t.Fatalf("want one global hazard at pc 3, got %+v", r.Hazards)
	}
	if fs := findKind(r, KindWARGlobal); len(fs) != 1 {
		t.Fatalf("want one war-global finding, got %+v", fs)
	}
}

func TestMustWriteKillsHazard(t *testing.T) {
	p := rawProg(t, "war-kill",
		luiFRAM(isa.R1),
		isa.Instr{Op: isa.LW, Rd: isa.R2, Rs1: isa.R1},
		isa.Instr{Op: isa.SW, Rd: isa.R0, Rs1: isa.R1}, // violation, then word is write-first
		isa.Instr{Op: isa.SW, Rd: isa.R2, Rs1: isa.R1}, // idempotent: writing own data
		halt(),
	)
	r := mustAnalyze(t, p)
	if len(r.Hazards) != 1 || r.Hazards[0].PC != 2 {
		t.Fatalf("want the hazard only at the first store (pc 2), got %+v", r.Hazards)
	}
}

func TestCircularBufferAnalysis(t *testing.T) {
	const n, bufN, iters = 4, 8, 3
	p, err := workload.CircularBuffer(n, bufN, iters, asm.FRAM)
	if err != nil {
		t.Fatal(err)
	}
	r := mustAnalyze(t, p)

	// The inner loop is the kernel's fixed 34-cycle, one-store body; the
	// static τ_store must agree with the workload's published constant.
	ts, ok := r.TauStore()
	if !ok {
		t.Fatal("no simple store loop found in circular buffer kernel")
	}
	if want := workload.CircularBufferStoreCycles(); ts != want {
		t.Fatalf("static tau_store = %v, want %v", ts, want)
	}

	// Interval analysis must resolve the modular indexing: the access
	// footprint is exactly the bufN buffer slots, which is the provable
	// Clank tracking-buffer requirement.
	if r.Clank.ReadFirstEntries != bufN {
		t.Errorf("read-first bound = %d, want %d", r.Clank.ReadFirstEntries, bufN)
	}
	if r.Clank.WriteFirstEntries != bufN {
		t.Errorf("write-first bound = %d, want %d", r.Clank.WriteFirstEntries, bufN)
	}

	// Every buffer slot is hazardous (the head wraps over all of them);
	// words outside the buffer are not.
	buf, ok := p.Symbols["buf"]
	if !ok {
		t.Fatal("no buf symbol")
	}
	for i := 0; i < bufN; i++ {
		if !r.HazardWord(buf + uint32(4*i)) {
			t.Errorf("slot %d not in hazard set", i)
		}
	}
	if r.HazardWord(buf + uint32(4*bufN)) {
		t.Error("word past the buffer is in the hazard set")
	}
}

func TestEq15Check(t *testing.T) {
	p, err := workload.CircularBuffer(4, 8, 3, asm.FRAM)
	if err != nil {
		t.Fatal(err)
	}
	r := mustAnalyze(t, p)

	// N=8, n=4, no write-back: 5 stores between violations at 34
	// cycles/store predicts τ_B = 170.
	res, err := r.Eq15(4, 8, 0, 170)
	if err != nil {
		t.Fatal(err)
	}
	if res.TauB != 170 || !res.Satisfied {
		t.Errorf("Eq15: τ_B = %v satisfied=%v, want 170 satisfied", res.TauB, res.Satisfied)
	}
	if res.NOpt != 8 {
		t.Errorf("Eq15: N_opt = %d, want 8", res.NOpt)
	}

	// A smaller buffer misses the same target.
	res, err = r.Eq15(4, 6, 0, 170)
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied {
		t.Errorf("Eq15: bufN=6 should not satisfy τ_B=170 (got τ_B=%v)", res.TauB)
	}
}

func TestRenderAndJSON(t *testing.T) {
	p := rawProg(t, "render",
		luiFRAM(isa.R1),
		isa.Instr{Op: isa.LW, Rd: isa.R2, Rs1: isa.R1},
		isa.Instr{Op: isa.SW, Rd: isa.R2, Rs1: isa.R1},
		halt(),
	)
	r := mustAnalyze(t, p)
	text := r.Render()
	if !strings.Contains(text, "war-before-first-checkpoint") {
		t.Errorf("Render missing hazard line:\n%s", text)
	}
	js, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"kind": "war-before-first-checkpoint"`) {
		t.Errorf("JSON missing finding kind:\n%s", js)
	}
}

func TestAnalyzeAllWorkloadsClean(t *testing.T) {
	// Every registered workload must analyze without structural errors:
	// no invalid SYS, no bad targets, no out-of-bounds or misaligned
	// accesses, no cold-boot register reads.
	for _, seg := range []asm.Segment{asm.SRAM, asm.FRAM} {
		for _, w := range workload.All() {
			p, err := w.Build(workload.Options{Seg: seg})
			if err != nil {
				t.Fatalf("%s: build: %v", w.Name, err)
			}
			r := mustAnalyze(t, p)
			for _, k := range []Kind{KindBadSys, KindBadTarget, KindOOB, KindMisaligned, KindUninitRead} {
				if fs := findKind(r, k); len(fs) != 0 {
					t.Errorf("%s/%v: unexpected %s findings: %+v", w.Name, seg, k, fs)
				}
			}
		}
	}
}
