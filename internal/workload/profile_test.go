package workload

import (
	"reflect"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/isa"
	"ehmodel/internal/mem"
)

// newMem returns a memory system of the modelled geometry to profile
// programs on.
func newMem(t testing.TB) *mem.System {
	t.Helper()
	ms, err := mem.NewSystem(mem.DefaultSRAMSize, mem.DefaultFRAMSize)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestProfileProgram(t *testing.T) {
	w, _ := Get("ds")
	opts := Options{Seg: asm.SRAM}
	prog, err := w.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProfileProgram(newMem(t), prog, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instructions == 0 || p.Cycles < p.Instructions {
		t.Fatalf("implausible counts: %+v", p)
	}
	if p.Stores == 0 || p.Loads == 0 {
		t.Fatal("ds performs loads and stores")
	}
	// ds increments 16 histogram words and dumps them
	if p.UniqueStoreWords != 16 {
		t.Errorf("unique store words = %d, want 16", p.UniqueStoreWords)
	}
	if p.StoreEveryCycles <= 0 {
		t.Error("no τ_store")
	}
	if !reflect.DeepEqual(p.Output, w.Ref(opts)) {
		t.Error("profile output diverges from oracle")
	}
	if p.SRAMFootprint != len(prog.SRAMImage) {
		t.Error("footprint mismatch")
	}
}

func TestProfileProgramTimeout(t *testing.T) {
	w, _ := Get("counter")
	prog, _ := w.Build(Options{Seg: asm.SRAM})
	if _, err := ProfileProgram(newMem(t), prog, 10); err == nil {
		t.Fatal("step budget should trip")
	}
}

// TestProfileStoreDensity: lzfx stores far more densely than sha, the
// τ_store contrast that drives Fig. 8.
func TestProfileStoreDensity(t *testing.T) {
	ms := newMem(t)
	tauStore := func(name string) float64 {
		t.Helper()
		w, _ := Get(name)
		prog, err := w.Build(Options{Seg: asm.SRAM})
		if err != nil {
			t.Fatal(err)
		}
		p, err := ProfileProgram(ms, prog, 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return p.StoreEveryCycles
	}
	if lzfx, sha := tauStore("lzfx"), tauStore("sha"); lzfx >= sha {
		t.Errorf("lzfx τ_store (%g) should undercut sha's (%g)", lzfx, sha)
	}
}

// TestProfileProgramClearsSystem: a program profiled on a system that
// earlier runs and a power loss left dirty reads the zeroed memory of a
// fresh system, so a caller can profile many programs on one.
func TestProfileProgramClearsSystem(t *testing.T) {
	b := asm.New("uninit")
	for _, addr := range []uint32{mem.SRAMBase + 0x100, mem.FRAMBase + 0x100} {
		b.Li(isa.R1, addr)
		b.Lw(isa.R2, isa.R1, 0)
		b.Out(isa.R2)
	}
	b.Halt()
	prog, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	ms := newMem(t)
	ms.LoseVolatile()
	if err := ms.StoreWord(mem.FRAMBase+0x100, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	p, err := ProfileProgram(ms, prog, 100)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{0, 0}; !reflect.DeepEqual(p.Output, want) {
		t.Errorf("uninitialized SRAM and FRAM words read %#x, want %#x", p.Output, want)
	}
}
