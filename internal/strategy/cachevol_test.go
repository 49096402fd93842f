package strategy

import (
	"reflect"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/workload"
)

// cacheCfg is fixedCfg plus a mixed-volatility cache.
func cacheCfg(prog *asm.Program, cyclesOfEnergy float64) device.Config {
	cfg := fixedCfg(prog, cyclesOfEnergy)
	cfg.CacheBlockSize = 32
	cfg.CacheSets = 16
	cfg.CacheWays = 2
	return cfg
}

// TestCacheVolatileEquivalence: the hybrid-cache runtime must commit
// oracle-identical output across FRAM-resident workloads under
// intermittent power.
func TestCacheVolatileEquivalence(t *testing.T) {
	for _, name := range []string{"counter", "ds", "crc", "qsort"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, ok := workload.Get(name)
			if !ok {
				t.Fatal("missing workload")
			}
			opts := workload.Options{Seg: asm.FRAM}
			prog, err := w.Build(opts)
			if err != nil {
				t.Fatal(err)
			}
			d, err := device.New(cacheCfg(prog, 20000), NewCacheVolatile())
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("incomplete after %d periods", len(res.Periods))
			}
			if !reflect.DeepEqual(res.Output, w.Ref(opts)) {
				t.Fatalf("output mismatch: got %v want %v", res.Output, w.Ref(opts))
			}
		})
	}
}

// TestCacheVolatileEquivalenceTranspose covers both Listing 1 orders.
func TestCacheVolatileEquivalenceTranspose(t *testing.T) {
	want := workload.TransposeRef(16)
	for _, order := range []workload.TransposeOrder{workload.LoadMajor, workload.StoreMajor} {
		prog, err := workload.Transpose(order, 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		d, err := device.New(cacheCfg(prog, 20000), NewCacheVolatile())
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || !reflect.DeepEqual(res.Output, want) {
			t.Fatalf("%v: completed=%v output=%v", order, res.Completed, res.Output)
		}
	}
}

// TestCacheVolatilePayloadsTrackDirtyBlocks: backup app bytes must be
// multiples of the block size and bounded by cache capacity.
func TestCacheVolatilePayloadsTrackDirtyBlocks(t *testing.T) {
	w, _ := workload.Get("ds")
	prog, err := w.Build(workload.Options{Seg: asm.FRAM})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cacheCfg(prog, 20000)
	d, err := device.New(cfg, NewCacheVolatile())
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil || !res.Completed {
		t.Fatalf("run failed: %v", err)
	}
	capacity := cfg.CacheBlockSize * cfg.CacheSets * cfg.CacheWays
	saw := false
	for _, p := range res.Periods {
		for _, ab := range p.AppBytes {
			if ab%cfg.CacheBlockSize != 0 {
				t.Fatalf("payload %d not block-aligned", ab)
			}
			if ab > capacity {
				t.Fatalf("payload %d exceeds cache capacity %d", ab, capacity)
			}
			if ab > 0 {
				saw = true
			}
		}
	}
	if !saw {
		t.Fatal("no dirty payloads observed")
	}
}

// TestCacheVolatileFuzz: random programs with FRAM data under the
// hybrid-cache runtime.
func TestCacheVolatileFuzz(t *testing.T) {
	ms := newMem(t)
	for seed := int64(1); seed <= 6; seed++ {
		prog, err := workload.Random(seed, asm.FRAM)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := workload.ProfileProgram(ms, prog, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		d, err := device.New(cacheCfg(prog, 20000), NewCacheVolatile())
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || !reflect.DeepEqual(res.Output, oracle.Output) {
			t.Fatalf("seed %d: completed=%v got %v want %v", seed, res.Completed, res.Output, oracle.Output)
		}
	}
}
