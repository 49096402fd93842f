package sweep

import (
	"math"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/strategy"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// testContent builds a small counter-workload cell configuration — the
// canonical hashable cell — for key and executor tests.
func testContent(t testing.TB, scale int, tauB uint64, periodCycles float64) (device.Config, device.Strategy) {
	t.Helper()
	w, ok := workload.Get("counter")
	if !ok {
		t.Fatal("no counter workload")
	}
	prog, err := w.Build(workload.Options{Seg: asm.SRAM, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	pm := energy.MSP430Power()
	e := periodCycles * pm.EnergyPerCycle(energy.ClassALU)
	capC, vmax, von, voff := device.FixedSupplyConfig(e)
	cfg := device.Config{
		Prog: prog, Power: pm,
		CapC: capC, CapVMax: vmax, VOn: von, VOff: voff,
		MaxPeriods: 50, MaxCycles: 1 << 62,
	}
	return cfg, strategy.NewTimer(tauB, 0.1)
}

func mustKey(t testing.TB, cfg device.Config, s device.Strategy) Key {
	t.Helper()
	k, ok := CellKey(cfg, s)
	if !ok {
		t.Fatal("cell unexpectedly unhashable")
	}
	return k
}

func TestCellKeyDeterministic(t *testing.T) {
	cfg, s := testContent(t, 2, 3000, 10000)
	k1 := mustKey(t, cfg, s)
	k2 := mustKey(t, cfg, s)
	if k1 != k2 {
		t.Fatalf("same content, different keys: %s vs %s", k1, k2)
	}
	// An equivalent config built independently must hash identically
	// (content addressing, not pointer identity).
	cfg2, s2 := testContent(t, 2, 3000, 10000)
	if k3 := mustKey(t, cfg2, s2); k3 != k1 {
		t.Fatalf("independently built identical content hashes differently")
	}
}

// TestCellKeySensitivity: every simulation-relevant field must move the
// key, and every environmental field must not.
func TestCellKeySensitivity(t *testing.T) {
	base, baseStrat := testContent(t, 2, 3000, 10000)
	baseKey := mustKey(t, base, baseStrat)

	seen := map[Key]string{baseKey: "base"}
	distinct := func(name string, cfg device.Config, s device.Strategy) {
		t.Helper()
		k := mustKey(t, cfg, s)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key collides with %s", name, prev)
			return
		}
		seen[k] = name
	}

	{ // code-version stamp (the injectable seam CellKey pins to CodeVersion)
		k, ok := cellKey(base, baseStrat, "ehmodel-cells-v999")
		if !ok {
			t.Fatal("unhashable under a different version")
		}
		if k == baseKey {
			t.Error("code-version bump did not change the key")
		}
	}
	{ // workload image
		cfg, _ := testContent(t, 3, 3000, 10000)
		distinct("prog scale", cfg, baseStrat)
	}
	{ // strategy parameters (via CacheKey)
		distinct("strategy τ_B", base, strategy.NewTimer(4000, 0.1))
		distinct("strategy α_B", base, strategy.NewTimer(3000, 0.2))
	}
	{ // a different strategy with the same parameters
		distinct("strategy kind", base, strategy.NewHibernus())
	}
	{ // supply
		cfg := base
		cfg.CapC *= 2
		distinct("capC", cfg, baseStrat)
	}
	{ // engine
		cfg := base
		cfg.Engine = device.EngineReference
		distinct("engine", cfg, baseStrat)
	}
	{ // bandwidths and NVM cost adjustments
		for _, m := range []struct {
			name string
			mut  func(*device.Config)
		}{
			{"sigmaB", func(c *device.Config) { c.SigmaB = 7 }},
			{"sigmaR", func(c *device.Config) { c.SigmaR = 7 }},
			{"omegaBExtra", func(c *device.Config) { c.OmegaBExtra = 1e-12 }},
			{"omegaRExtra", func(c *device.Config) { c.OmegaRExtra = 1e-12 }},
			{"cache", func(c *device.Config) { c.CacheBlockSize = 32; c.CacheSets = 16; c.CacheWays = 2 }},
			{"maxCycles", func(c *device.Config) { c.MaxCycles = 1 << 40 }},
			{"maxPeriods", func(c *device.Config) { c.MaxPeriods = 51 }},
			{"livelock", func(c *device.Config) { c.DetectLivelock = true }},
			{"vOff", func(c *device.Config) { c.VOff *= 1.01 }},
		} {
			cfg := base
			m.mut(&cfg)
			distinct(m.name, cfg, baseStrat)
		}
	}
	{ // harvester: fingerprinted source, R and Eta are all key material
		tr := trace.Generate(trace.MultiPeak, 1, 1e-3, 42)
		cfg := base
		cfg.Harvester = mustHarvester(t, tr, 40000, 0.7)
		distinct("harvester", cfg, baseStrat)
		cfg2 := base
		cfg2.Harvester = mustHarvester(t, tr, 40000, 0.8)
		distinct("harvester eta", cfg2, baseStrat)
		// MultiPeak is seed-independent by construction, so vary the seed
		// on Spikes, whose placement is drawn from the rng.
		cfg3 := base
		cfg3.Harvester = mustHarvester(t, trace.Generate(trace.Spikes, 1, 1e-3, 42), 40000, 0.7)
		distinct("harvester trace kind", cfg3, baseStrat)
		cfg4 := base
		cfg4.Harvester = mustHarvester(t, trace.Generate(trace.Spikes, 1, 1e-3, 43), 40000, 0.7)
		distinct("harvester trace seed", cfg4, baseStrat)
	}

	// Environmental fields must NOT move the key.
	{
		cfg := base
		cfg.RunTimeout = 123
		cfg.Interrupt = func() error { return nil }
		if k := mustKey(t, cfg, baseStrat); k != baseKey {
			t.Error("environmental fields (RunTimeout/Interrupt) leaked into the key")
		}
	}
}

// TestCellKeyPinned pins the exact key of four cells: a bench-supply
// timer cell, a harvested cell, a mixed-volatility cache cell and a
// reference-engine cell. TestCellKeySensitivity only checks that fields
// move keys; a key that moves silently would turn every stored entry
// into a miss, so any change to these digests must come with a
// CodeVersion bump.
func TestCellKeyPinned(t *testing.T) {
	base, timer := testContent(t, 2, 3000, 10000)
	harvested := base
	harvested.Harvester = mustHarvester(t, trace.Generate(trace.MultiPeak, 1, 1e-3, 42), 40000, 0.7)
	cached := base
	cached.CacheBlockSize, cached.CacheSets, cached.CacheWays = 32, 16, 2
	reference := base
	reference.Engine = device.EngineReference
	for _, c := range []struct {
		name  string
		cfg   device.Config
		strat device.Strategy
		want  string
	}{
		{"bench timer", base, timer, "16e7194e828d9dc23796f298195b0e567e172ebc52b8bd6cc3734ba02d584b68"},
		{"harvested", harvested, timer, "acd4df78d0a21d49506c2d1dedd40d781b72ed60b58f769b6f7aaac69faf5029"},
		{"cachevol", cached, strategy.NewCacheVolatile(), "810d8ae96e6615bccb8b9a94b35456c94fc71f5e5dea642cf173b704565fc4f5"},
		{"reference", reference, timer, "72a94b0d91c5bf6fea4c49b76e8a8cb6596602ffec59f1d9b25ba06aa5b15b86"},
	} {
		if got := mustKey(t, c.cfg, c.strat).String(); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}

// stubInjector is a non-nil FaultInjector; cellKey must refuse it
// before calling any method.
type stubInjector struct{ device.FaultInjector }

func TestCellKeyBypass(t *testing.T) {
	base, baseStrat := testContent(t, 2, 3000, 10000)

	check := func(name string, cfg device.Config, s device.Strategy) {
		t.Helper()
		if _, ok := CellKey(cfg, s); ok {
			t.Errorf("%s: expected bypass, got a key", name)
		}
	}

	{
		cfg := base
		cfg.Faults = stubInjector{}
		check("fault injector", cfg, baseStrat)
	}
	{
		cfg := base
		cfg.Record = &device.ObsLog{}
		check("observation recorder", cfg, baseStrat)
	}
	{
		cfg := base
		cfg.Prog = nil
		check("nil prog", cfg, baseStrat)
	}
	check("nil strategy", base, nil)
	// A strategy that does not implement CacheKeyer (RegionMeter is the
	// in-tree example: its post-run counters are read off the live
	// instance) bypasses before any of its methods are called.
	check("unkeyed strategy", base, unkeyedStrategy{})
	// An empty CacheKey is an explicit opt-out (Alpaca with commit
	// recording uses it).
	check("opted-out strategy", base, optedOutStrategy{})
}

// BenchmarkCellKeyHarvested: the first key of a harvested cell, which
// hashes its trace (later keys of one instance reuse the digest). Each
// iteration keys a fresh instance of the same 10 s trace.
func BenchmarkCellKeyHarvested(b *testing.B) {
	cfg, s := testContent(b, 1, 2000, 10000)
	tr := trace.Generate(trace.MultiPeak, 10, 1e-3, 77)
	cfg.Harvester = mustHarvester(b, tr, 40000, 0.7)
	b.ReportAllocs()
	for b.Loop() {
		cfg.Harvester.Source = &trace.Trace{Name: tr.Name, SamplesV: tr.SamplesV, PeriodS: tr.PeriodS}
		if _, ok := CellKey(cfg, s); !ok {
			b.Fatal("harvested cell unexpectedly unhashable")
		}
	}
}

func mustHarvester(t testing.TB, src *trace.Trace, r, eta float64) *energy.Harvester {
	t.Helper()
	h, err := energy.NewHarvester(src, r, eta)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// unkeyedStrategy is a Strategy that does not implement CacheKeyer;
// optedOutStrategy implements it but opts out with an empty key.
type unkeyedStrategy struct{ device.Strategy }

type optedOutStrategy struct{ device.Strategy }

func (optedOutStrategy) CacheKey() string { return "" }

// FuzzCellKey fuzzes the canonicalizer's numeric surface: for any valid
// parameter tuple the key must be deterministic, and any single-field
// perturbation must change it.
func FuzzCellKey(f *testing.F) {
	f.Add(uint64(3000), 0.1, 1.0, 1.0, 50, uint64(1<<40))
	f.Add(uint64(1), 0.0, 0.5, 2.0, 1, uint64(1000))
	f.Add(uint64(1<<40), 100.0, 64.0, 64.0, 100000, uint64(1<<62))
	f.Fuzz(func(t *testing.T, tauB uint64, alphaB, sigmaB, sigmaR float64, maxPeriods int, maxCycles uint64) {
		if tauB == 0 || maxPeriods <= 0 || maxCycles == 0 {
			t.Skip()
		}
		for _, v := range []float64{alphaB, sigmaB, sigmaR} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Skip()
			}
		}
		if sigmaB == 0 || sigmaR == 0 {
			t.Skip()
		}
		cfg, _ := testContent(t, 1, tauB, 10000)
		cfg.SigmaB, cfg.SigmaR = sigmaB, sigmaR
		cfg.MaxPeriods, cfg.MaxCycles = maxPeriods, maxCycles
		s := strategy.NewTimer(tauB, alphaB)

		k1 := mustKey(t, cfg, s)
		if k2 := mustKey(t, cfg, s); k2 != k1 {
			t.Fatal("key not deterministic")
		}
		perturb := []struct {
			name string
			cfg  device.Config
			s    device.Strategy
		}{
			{"tauB", cfg, strategy.NewTimer(tauB+1, alphaB)},
			{"alphaB", cfg, strategy.NewTimer(tauB, alphaB+1)},
			{"sigmaB", with(cfg, func(c *device.Config) { c.SigmaB = sigmaB + 1 }), s},
			{"sigmaR", with(cfg, func(c *device.Config) { c.SigmaR = sigmaR + 1 }), s},
			{"maxPeriods", with(cfg, func(c *device.Config) { c.MaxPeriods = maxPeriods + 1 }), s},
			{"maxCycles", with(cfg, func(c *device.Config) { c.MaxCycles = maxCycles - 1 }), s},
		}
		for _, p := range perturb {
			if p.name == "maxCycles" && maxCycles-1 == 0 {
				continue
			}
			if k := mustKey(t, p.cfg, p.s); k == k1 {
				t.Errorf("perturbing %s did not change the key", p.name)
			}
		}
	})
}

func with(cfg device.Config, mut func(*device.Config)) device.Config {
	mut(&cfg)
	return cfg
}

func TestKeyStringRoundTrip(t *testing.T) {
	cfg, s := testContent(t, 2, 3000, 10000)
	k := mustKey(t, cfg, s)
	back, err := ParseKey(k.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != k {
		t.Fatal("hex round trip lost the key")
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := ParseKey("abcd"); err == nil {
		t.Error("short key accepted")
	}
}
