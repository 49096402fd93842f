package workload

import (
	"reflect"
	"testing"

	"ehmodel/internal/asm"
)

func TestCircularBufferMatchesRef(t *testing.T) {
	ms := newMem(t)
	for _, tc := range []struct{ n, bufN, iters int }{
		{8, 8, 3},  // conventional in-place
		{8, 16, 3}, // double buffering
		{8, 21, 5}, // non-power-of-two wrap
		{32, 64, 2},
	} {
		prog, err := CircularBuffer(tc.n, tc.bufN, tc.iters, asm.FRAM)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		p, err := ProfileProgram(ms, prog, 10_000_000)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		want := CircularBufferRef(tc.n, tc.bufN, tc.iters)
		if !reflect.DeepEqual(p.Output, want) {
			t.Fatalf("%+v: got %v want %v", tc, p.Output, want)
		}
	}
}

func TestCircularBufferValidation(t *testing.T) {
	cases := []struct{ n, bufN, iters int }{
		{0, 8, 1}, {8, 4, 1}, {8, 8, 0},
	}
	for _, tc := range cases {
		if _, err := CircularBuffer(tc.n, tc.bufN, tc.iters, asm.FRAM); err == nil {
			t.Errorf("%+v accepted", tc)
		}
	}
}

func TestCircularBufferStoreCycles(t *testing.T) {
	// verify the documented constant against an actual instruction walk:
	// count cycles between the first two stores in a continuous run.
	prog, err := CircularBuffer(8, 16, 1, asm.FRAM)
	if err != nil {
		t.Fatal(err)
	}
	// crude but faithful: the inner loop executes n stores over
	// n·τ_store cycles; measure total run cycles of the inner phase by
	// comparing two iteration counts.
	p1, _ := CircularBuffer(8, 16, 1, asm.FRAM)
	p2, _ := CircularBuffer(8, 16, 2, asm.FRAM)
	ms := newMem(t)
	r1, err := ProfileProgram(ms, p1, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ProfileProgram(ms, p2, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	perOuter := float64(r2.Cycles - r1.Cycles) // one extra outer iteration = n stores
	perStore := perOuter / 8
	want := CircularBufferStoreCycles()
	if diff := perStore - want; diff > 3 || diff < -3 {
		t.Fatalf("measured τ_store %g, documented %g", perStore, want)
	}
	_ = prog
}
