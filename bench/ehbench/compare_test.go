package main

import "testing"

func runs(vals ...float64) []*result {
	out := make([]*result, len(vals))
	for i, v := range vals {
		out[i] = &result{Seed: int64(i + 1), Metrics: map[string]metric{"op_p50_ms": {Value: v, Unit: "ms"}}}
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	d := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	parent := runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		name   string
		change []*result
		want   string
	}{
		{"same code", runs(100, 99, 101, 100, 98, 102, 100, 99, 101, 100), "unchanged"},
		{"faster in every pair", runs(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "improved"},
		{"faster but inside the parent's spread", runs(99.5, 100.5, 98.5, 99.5, 101.5, 97.5, 99.5, 100.5, 98.5, 99.5), "unchanged"},
		{"slower by more than the bound", runs(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "regressed"},
		{"slower within the bound", runs(105, 106, 104, 105, 107, 103, 105, 106, 104, 105), "unchanged"},
		{"noisier than the bound", runs(60, 140, 70, 130, 80, 120, 90, 110, 100, 100), "unresolved"},
	}
	for _, c := range cases {
		if got := compareRow(d, parent, c.change).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestComparePairsBySeed(t *testing.T) {
	d := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	parent := runs(10, 20, 30)
	change := runs(9, 19, 31)
	rw := compareRow(d, parent, change)
	if rw.Pairs != 3 || rw.Wins != 2 {
		t.Fatalf("pairs %d wins %d, want 3 and 2", rw.Pairs, rw.Wins)
	}
}
