package workload

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"ehmodel/internal/asm"
)

// TestProgramTable: under one table every caller of a (workload,
// options) pair gets the same program, however many ask at once, and
// Scale 0 and 1 name one pair; another pair, another table or no table
// at all gets a program of its own with the same contents.
func TestProgramTable(t *testing.T) {
	ctx := WithPrograms(context.Background())
	const callers = 8
	progs := make([]*asm.Program, callers)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := Program(ctx, "crc", Options{Seg: asm.SRAM, Scale: i % 2})
			if err != nil {
				t.Error(err)
			}
			progs[i] = p
		}()
	}
	wg.Wait()
	for i, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatalf("caller %d got %p, caller 0 %p: one pair, one program", i, p, progs[0])
		}
	}
	fram, err := Program(ctx, "crc", Options{Seg: asm.FRAM})
	if err != nil {
		t.Fatal(err)
	}
	if fram == progs[0] {
		t.Error("FRAM and SRAM builds share a program")
	}

	w, _ := Get("crc")
	want, err := w.Build(Options{Seg: asm.SRAM})
	if err != nil {
		t.Fatal(err)
	}
	for name, ctx := range map[string]context.Context{
		"another table": WithPrograms(context.Background()),
		"no table":      context.Background(),
	} {
		p, err := Program(ctx, "crc", Options{Seg: asm.SRAM})
		if err != nil {
			t.Fatal(err)
		}
		if p == progs[0] {
			t.Errorf("%s: got the first table's program", name)
		}
		if !reflect.DeepEqual(p, want) {
			t.Errorf("%s: program differs from a fresh build", name)
		}
	}
	p1, _ := Program(context.Background(), "crc", Options{Seg: asm.SRAM})
	p2, _ := Program(context.Background(), "crc", Options{Seg: asm.SRAM})
	if p1 == p2 {
		t.Error("without a table, two calls share a program")
	}

	if _, err := Program(ctx, "no-such-workload", Options{}); err == nil {
		t.Error("unknown workload accepted")
	}
}
