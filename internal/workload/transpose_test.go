package workload

import (
	"reflect"
	"testing"
)

func TestTransposeBothOrdersMatchRef(t *testing.T) {
	want := TransposeRef(16)
	ms := newMem(t)
	for _, order := range []TransposeOrder{LoadMajor, StoreMajor} {
		prog, err := Transpose(order, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ProfileProgram(ms, prog, 10_000_000)
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		if p.Cycles == 0 {
			t.Fatalf("%v: no work", order)
		}
		if !reflect.DeepEqual(p.Output, want) {
			t.Fatalf("%v: output %v, want %v", order, p.Output, want)
		}
	}
}

func TestTransposeOrdersDifferOnlyInAccessPattern(t *testing.T) {
	lm, err := Transpose(LoadMajor, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := Transpose(StoreMajor, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(lm.Code) != len(sm.Code) {
		t.Fatalf("orders should have identical instruction counts: %d vs %d",
			len(lm.Code), len(sm.Code))
	}
	// same work, same cycles — only the addresses differ
	ms := newMem(t)
	r1, err := ProfileProgram(ms, lm, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ProfileProgram(ms, sm, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Fatalf("cycle counts differ without a cache: %d vs %d", r1.Cycles, r2.Cycles)
	}
}
