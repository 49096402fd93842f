package analyze

import (
	"reflect"
	"testing"
)

// TestSCCs pins the one Tarjan routine on both graphs it serves: the
// dense block graph of analyzeLoops and the PC-keyed collapse graph of
// the WCEC pass, whose ids are sparse once collapses delete members.
// Components come out in reverse topological order (a component before
// every component that reaches it), each sorted ascending; a self loop
// is cyclic and a lone node is not.
func TestSCCs(t *testing.T) {
	// Block graph: 0 → {1}; the loop 1 → 4 → 2 → 1, discovered out of
	// address order; 2 → 3; 3 self-loops and falls to the lone block 5.
	blocks := &cfg{blocks: []block{
		{Succs: []int{1}},
		{Succs: []int{4}},
		{Succs: []int{3, 1}},
		{Succs: []int{3, 5}},
		{Succs: []int{2}},
		{},
	}}
	// Collapse graph over PCs [0, 16): 3 → 7; the loop 7 ⇄ 9, whose edge
	// to the deleted PC 5 is skipped; 12 self-loops; 14 → 12.
	collapse := cGraph{
		3:  {succ: []cEdge{{to: 7}}},
		7:  {succ: []cEdge{{to: 9}}},
		9:  {succ: []cEdge{{to: 5}, {to: 7}}},
		12: {succ: []cEdge{{to: 12}}},
		14: {succ: []cEdge{{to: 12}}},
	}
	all := func(allowed map[int]bool) func(int) bool {
		return func(v int) bool { return allowed == nil || allowed[v] }
	}
	inCollapse := func(allowed map[int]bool) func(int) bool {
		return func(v int) bool { return collapse[v] != nil && (allowed == nil || allowed[v]) }
	}
	set := func(ids ...int) map[int]bool {
		m := map[int]bool{}
		for _, id := range ids {
			m[id] = true
		}
		return m
	}
	cases := []struct {
		name       string
		n          int
		in         func(int) bool
		succ       func(v, i int) (int, bool)
		want       [][]int
		wantCyclic []bool
	}{
		{"blocks", 6, all(nil), blocks.succ,
			[][]int{{5}, {3}, {1, 2, 4}, {0}},
			[]bool{false, true, true, false}},
		{"blocks below the header", 6, all(set(2, 3, 4, 5)), blocks.succ,
			[][]int{{5}, {3}, {2}, {4}},
			[]bool{false, true, false, false}},
		{"collapse", 16, inCollapse(nil), collapse.succ,
			[][]int{{7, 9}, {3}, {12}, {14}},
			[]bool{true, false, true, false}},
		{"collapse below the header", 16, inCollapse(set(3, 9, 12)), collapse.succ,
			[][]int{{3}, {9}, {12}},
			[]bool{false, false, true}},
	}
	for _, c := range cases {
		got := sccs(c.n, c.in, c.succ)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: sccs = %v, want %v", c.name, got, c.want)
			continue
		}
		for i, comp := range got {
			if cyc := cyclic(comp, c.succ); cyc != c.wantCyclic[i] {
				t.Errorf("%s: cyclic(%v) = %v, want %v", c.name, comp, cyc, c.wantCyclic[i])
			}
		}
	}
}
