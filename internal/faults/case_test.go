package faults

import (
	"reflect"
	"testing"
)

// TestCaseStringRoundTrip: ParseCase(c.String()) must reproduce c for
// every shape of case the auditor and campaign print.
func TestCaseStringRoundTrip(t *testing.T) {
	cases := []Case{
		{Strategy: "timer", Workload: "counter", Plan: Plan{Seed: 1}},
		{Strategy: "clank", Workload: "qsort", Plan: Plan{Seed: -3}},
		{Strategy: "timer", Workload: "counter", Plan: Plan{Seed: 7, CutCycles: []uint64{3284}, NaiveCommit: true}},
		{Strategy: "chain", Workload: "sense", Plan: Plan{Seed: 1, CutCycles: []uint64{400}, StaleRestoreProb: 1}, Oracle: true},
		{Strategy: "timer+sense", Workload: "sense", Plan: Plan{Seed: 2, RandomCutMeanCycles: 7000,
			TornWriteProb: 0.001, BitFlipRate: 0.0015, StaleRestoreProb: 0.05}, Oracle: true, Fresh: 500,
			Period: 20000, Periods: 20000},
		{Strategy: "dino", Workload: "ds", Plan: Plan{Seed: 9, CutCycles: []uint64{100, 2500, 90000}}},
	}
	for _, c := range cases {
		s := c.String()
		got, err := ParseCase(s)
		if err != nil {
			t.Errorf("ParseCase(%q): %v", s, err)
			continue
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("round trip of %q:\n got %+v\nwant %+v", s, got, c)
		}
		// The printed form is canonical: re-printing reproduces it.
		if again := got.String(); again != s {
			t.Errorf("String not canonical: %q re-printed as %q", s, again)
		}
	}
}

func TestParseCaseErrors(t *testing.T) {
	bad := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"no slash", "timer seed=1"},
		{"empty strategy", "/counter seed=1"},
		{"empty workload", "timer/ seed=1"},
		{"missing seed value", "timer/counter seed="},
		{"seed not a number", "timer/counter seed=abc"},
		{"unknown token", "timer/counter seed=1 laser=9"},
		{"bare unknown flag", "timer/counter seed=1 turbo"},
		{"naive with value", "timer/counter seed=1 naive=1"},
		{"oracle with value", "timer/counter seed=1 oracle=yes"},
		{"cuts empty element", "timer/counter seed=1 cuts=100,,200"},
		{"cuts negative", "timer/counter seed=1 cuts=-5"},
		{"torn negative", "timer/counter seed=1 torn=-0.1"},
		{"torn nan", "timer/counter seed=1 torn=NaN"},
		{"mean inf", "timer/counter seed=1 mean=+Inf"},
		{"fresh not a number", "timer/counter seed=1 fresh=soon"},
		{"period nan", "timer/counter seed=1 period=NaN"},
		{"periods fractional", "timer/counter seed=1 periods=1.5"},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			got, err := ParseCase(c.in)
			if err == nil {
				t.Fatalf("ParseCase(%q) accepted as %+v", c.in, got)
			}
		})
	}
}

// TestParseCaseWhitespace: token spacing is free-form; the parse is
// insensitive to runs of spaces.
func TestParseCaseWhitespace(t *testing.T) {
	a, err := ParseCase("timer/counter seed=1 cuts=5,9 naive")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseCase("  timer/counter   seed=1   cuts=5,9   naive  ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("whitespace changed the parse: %+v vs %+v", a, b)
	}
}

// FuzzParseCase: no input may panic the parser, and any accepted input
// must round-trip through the canonical printed form.
func FuzzParseCase(f *testing.F) {
	f.Add("timer/counter seed=1")
	f.Add("chain/sense seed=1 cuts=400 stale=1 oracle period=20000 periods=20000")
	f.Add("timer/counter seed=7 cuts=3284 naive")
	f.Add("a/b seed=0 mean=1e9 torn=1 flips=1 stale=1 fresh=18446744073709551615")
	f.Add("  /  = naive oracle cuts=")
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseCase(s)
		if err != nil {
			return
		}
		printed := c.String()
		again, err := ParseCase(printed)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q rejected: %v", printed, s, err)
		}
		if !reflect.DeepEqual(c, again) {
			t.Fatalf("round trip unstable for %q:\n first %+v\nsecond %+v", s, c, again)
		}
	})
}
