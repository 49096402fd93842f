package device_test

import (
	"math"
	"math/rand"
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
// which sleeps through consume, none.
func TestFusedSleepPaths(t *testing.T) {
	want := map[string][2]uint64{
		"crc": {522302, 18032},
		"ds":  {522313, 17841},
		"sha": {522304, 17773},
	}
	spec, ok := strategy.Lookup("hibernus")
	if !ok {
		t.Fatal("hibernus missing from the catalog")
	}
	tr := trace.Generate(trace.MultiPeak, 20, 1e-3, 1)
	for _, wl := range []string{"crc", "ds", "sha"} {
		w, ok := workload.Get(wl)
		if !ok {
			t.Fatalf("workload %q missing", wl)
		}
		prog, err := w.Build(workload.Options{Seg: spec.Seg, Scale: 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []device.Engine{device.EngineBatched, device.EngineReference} {
			h, err := energy.NewHarvester(tr, 3000, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			cfg := benchEquivCfg(prog, 6000)
			cfg.Engine = eng
			cfg.Harvester = h
			d, err := device.New(cfg, spec.New())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Run(); err != nil {
				t.Fatalf("%s (%v): %v", wl, eng, err)
			}
			clamped, general := d.SleepChunks()
			w := want[wl]
			if eng == device.EngineReference {
				w = [2]uint64{}
			}
			if clamped != w[0] || general != w[1] {
				t.Errorf("%s (%v): %d clamped and %d general sleep chunks, want %d and %d",
					wl, eng, clamped, general, w[0], w[1])
			}
		}
	}
}

// TestClampThreshold: h ≥ ClampThreshold(E(v*), C, VMax) must be
// Capacitor.Store's clamp test at v* for every harvest, bit for bit —
// the least clamping double itself clamps and the double below it does
// not — on the sim-harvest capacitor at its v*, on a full capacitor,
// and with no v* (NaN), where nothing may clamp.
func TestClampThreshold(t *testing.T) {
	pm := energy.MSP430Power()
	capC, vmax, _, _ := device.FixedSupplyConfig(6000 * pm.EnergyPerCycle(energy.ClassALU))
	j := 64 * pm.EnergyPerCycle(energy.ClassIdle)
	hc := 0.5 * capC
	vStar := math.Sqrt(2 * (hc*vmax*vmax - j) / capC)
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name          string
		eStar, c, max float64
	}{
		{"sim-harvest", hc * vStar * vStar, capC, vmax},
		{"full", hc * vmax * vmax, capC, vmax},
		{"no v*", math.NaN(), capC, vmax},
	} {
		clamps := func(h float64) bool { return h > 0 && math.Sqrt(2*(c.eStar+h)/c.c) > c.max }
		hStar := device.ClampThreshold(c.eStar, c.c, c.max)
		below := math.Nextafter(hStar, 0)
		probes := []float64{hStar, below, math.Nextafter(hStar, math.Inf(1)), 0, math.Copysign(0, -1),
			-1, math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()}
		for i := 0; i < 10000; i++ {
			probes = append(probes, hStar*math.Exp(rng.NormFloat64()), math.Float64frombits(rng.Uint64()>>1))
		}
		for _, h := range probes {
			if got, want := h >= hStar, clamps(h); got != want {
				t.Errorf("%s: h=%v: h ≥ %v is %v, Store's clamp test %v", c.name, h, hStar, got, want)
			}
		}
		t.Logf("%s: h* = %v", c.name, hStar)
	}
}
