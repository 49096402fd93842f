package strategy

import (
	"os"
	"reflect"
	"strconv"
	"testing"

	"ehmodel/internal/device"
	"ehmodel/internal/mem"
	"ehmodel/internal/workload"
)

// fuzzBaseSeed is the first program-generator seed the fuzz matrix
// tries. Override it with EHSIM_FUZZ_SEED to replay a reported failure
// or to sweep a fresh region of the program space; every failure message
// names the exact seed, so any finding reproduces with
// EHSIM_FUZZ_SEED=<seed> and the generator's determinism
// (TestRandomDeterministic) guarantees the replay is faithful.
func fuzzBaseSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("EHSIM_FUZZ_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("EHSIM_FUZZ_SEED=%q: %v", s, err)
	}
	return v
}

// newMem returns a memory system of the modelled geometry for
// continuous-execution oracles.
func newMem(t testing.TB) *mem.System {
	t.Helper()
	ms, err := mem.NewSystem(mem.DefaultSRAMSize, mem.DefaultFRAMSize)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestFuzzEquivalence differentially tests the whole stack: random
// terminating programs must produce identical committed output under
// every runtime strategy and aggressive intermittency as under
// continuous execution. This is the strongest correctness statement the
// simulator makes — any bug in checkpoint contents, restore paths,
// idempotency tracking or output commit logic shows up here.
func TestFuzzEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing matrix is slow")
	}
	const seeds = 24
	base := fuzzBaseSeed(t)
	t.Logf("fuzz seeds %d..%d (override with EHSIM_FUZZ_SEED)", base, base+seeds-1)
	for _, c := range allCombos() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			ms := newMem(t)
			for seed := base; seed < base+seeds; seed++ {
				prog, err := workload.Random(seed, c.Seg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				oracle, err := workload.ProfileProgram(ms, prog, 50_000_000)
				if err != nil {
					t.Fatalf("seed %d oracle: %v", seed, err)
				}
				d, err := device.New(fixedCfg(prog, 20000), c.New())
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				res, err := d.Run()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.Completed {
					t.Fatalf("seed %d: incomplete after %d periods", seed, len(res.Periods))
				}
				if !reflect.DeepEqual(res.Output, oracle.Output) {
					t.Fatalf("seed %d: output diverged\n got %v\nwant %v", seed, res.Output, oracle.Output)
				}
			}
		})
	}
}

// TestRandomDeterministic: the generator must be reproducible — the
// oracle property depends on it.
func TestRandomDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		a, err := workload.Random(seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := workload.Random(seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Code, b.Code) || !reflect.DeepEqual(a.SRAMImage, b.SRAMImage) {
			t.Fatalf("seed %d: generator not deterministic", seed)
		}
	}
	a, _ := workload.Random(1, 0)
	b, _ := workload.Random(2, 0)
	if reflect.DeepEqual(a.Code, b.Code) {
		t.Fatal("different seeds produced identical programs")
	}
}
