package workload

import (
	"reflect"
	"testing"

	"ehmodel/internal/asm"
)

func TestProfileProgram(t *testing.T) {
	w, _ := Get("ds")
	opts := Options{Seg: asm.SRAM}
	prog, err := w.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProfileProgram(prog, 10_000_000)
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
	if _, err := ProfileProgram(prog, 10); err == nil {
		t.Fatal("step budget should trip")
	}
}

// TestProfileStoreDensity: lzfx stores far more densely than sha, the
// τ_store contrast that drives Fig. 8.
func TestProfileStoreDensity(t *testing.T) {
	tauStore := func(name string) float64 {
		t.Helper()
		w, _ := Get(name)
		prog, err := w.Build(Options{Seg: asm.SRAM})
		if err != nil {
			t.Fatal(err)
		}
		p, err := ProfileProgram(prog, 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return p.StoreEveryCycles
	}
	if lzfx, sha := tauStore("lzfx"), tauStore("sha"); lzfx >= sha {
		t.Errorf("lzfx τ_store (%g) should undercut sha's (%g)", lzfx, sha)
	}
}
