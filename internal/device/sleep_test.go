package device_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/strategy"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// TestFusedSleepPaths fences the fused sleep's clamped chunk, which bit
// identity cannot see: were it to fall back to the general path, every
// Result would stay the same. On the benchmark's seed-1 Hibernus
// multipeak harvest cells (Scale 10, R 3000 Ω, η 0.7, a 6k-cycle
// capacitor) the batched engine must settle exactly these chunks on
// each path — the general ones are the troughs where the harvest no
// longer clamps, and each sleep's last chunk — and the reference engine,
// which sleeps through consume, none. A cache-model device runs the
// reference engine whatever its Config asks for, its sleeps included:
// it must report that engine, settle no fused chunk and return the
// reference Result.
func TestFusedSleepPaths(t *testing.T) {
	spec, ok := strategy.Lookup("hibernus")
	if !ok {
		t.Fatal("hibernus missing from the catalog")
	}
	tr := trace.Generate(trace.MultiPeak, 20, 1e-3, 1)
	for _, row := range []struct {
		wl         string
		scale      int
		harvest    bool
		cacheBlock int
		want       [2]uint64 // the batched engine's clamped and general chunks
	}{
		{"crc", 10, true, 0, [2]uint64{522302, 18032}},
		{"ds", 10, true, 0, [2]uint64{522313, 17841}},
		{"sha", 10, true, 0, [2]uint64{522304, 17773}},
		{"crc", 2, false, 32, [2]uint64{}},
	} {
		w, ok := workload.Get(row.wl)
		if !ok {
			t.Fatalf("workload %q missing", row.wl)
		}
		prog, err := w.Build(workload.Options{Seg: spec.Seg, Scale: row.scale})
		if err != nil {
			t.Fatal(err)
		}
		var results []*device.Result
		for _, eng := range []device.Engine{device.EngineBatched, device.EngineReference} {
			cfg := benchEquivCfg(prog, 6000)
			cfg.Engine = eng
			cfg.CacheBlockSize = row.cacheBlock
			if row.harvest {
				if cfg.Harvester, err = energy.NewHarvester(tr, 3000, 0.7); err != nil {
					t.Fatal(err)
				}
			}
			d, err := device.New(cfg, spec.New())
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Run()
			if err != nil {
				t.Fatalf("%s (%v): %v", row.wl, eng, err)
			}
			results = append(results, res)
			if row.cacheBlock > 0 && d.Engine() != device.EngineReference {
				t.Errorf("%s with a cache (%v): device reports the %v engine", row.wl, eng, d.Engine())
			}
			clamped, general := d.SleepChunks()
			want := row.want
			if eng == device.EngineReference {
				want = [2]uint64{}
			}
			if clamped != want[0] || general != want[1] {
				t.Errorf("%s (%v, cache block %d): %d clamped and %d general sleep chunks, want %d and %d",
					row.wl, eng, row.cacheBlock, clamped, general, want[0], want[1])
			}
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("%s (cache block %d): the batched and reference Results differ", row.wl, row.cacheBlock)
		}
	}
}

// TestClampThreshold: h ≥ ClampThreshold(law, v*, E(v*)) must be the
// textbook clamp test at v*, √(2(E(v*)+h)/C) > VMax for a harvest
// h > 0, for every harvest, bit for bit — the least clamping double
// itself clamps and the double below it does not — and the settle
// step's credit must clamp exactly when h ≥ h*. It checks the
// sim-harvest capacitor at its v*, a full capacitor, and no v* (NaN),
// where nothing may clamp.
func TestClampThreshold(t *testing.T) {
	pm := energy.MSP430Power()
	capC, vmax, _, _ := device.FixedSupplyConfig(6000 * pm.EnergyPerCycle(energy.ClassALU))
	j := 64 * pm.EnergyPerCycle(energy.ClassIdle)
	hc := 0.5 * capC
	law := energy.Settle{HC: hc, VMax: vmax}
	vStar := math.Sqrt(2 * (hc*vmax*vmax - j) / capC)
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name string
		v, e float64
	}{
		{"sim-harvest", vStar, hc * vStar * vStar},
		{"full", vmax, hc * vmax * vmax},
		{"no v*", math.NaN(), math.NaN()},
	} {
		clamps := func(h float64) bool { return h > 0 && math.Sqrt(2*(c.e+h)/capC) > vmax }
		hStar := device.ClampThreshold(law, c.v, c.e)
		below := math.Nextafter(hStar, 0)
		probes := []float64{hStar, below, math.Nextafter(hStar, math.Inf(1)), 0, math.Copysign(0, -1),
			-1, math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()}
		for i := 0; i < 10000; i++ {
			probes = append(probes, hStar*math.Exp(rng.NormFloat64()), math.Float64frombits(rng.Uint64()>>1))
		}
		for _, h := range probes {
			if got, want := h >= hStar, clamps(h); got != want {
				t.Errorf("%s: h=%v: h ≥ %v is %v, the clamp test %v", c.name, h, hStar, got, want)
			}
			if _, _, _, clamped := law.Credit(c.v, c.e, h); clamped != (h >= hStar) {
				t.Errorf("%s: h=%v: the credit clamped: %v; h ≥ %v: %v", c.name, h, clamped, hStar, h >= hStar)
			}
		}
		t.Logf("%s: h* = %v", c.name, hStar)
	}
}
