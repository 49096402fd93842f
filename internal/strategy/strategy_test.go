package strategy

import (
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/isa"
	"ehmodel/internal/workload"
)

// buildWorkload assembles a registered workload for tests.
func buildWorkload(t *testing.T, name string, seg asm.Segment) *asm.Program {
	t.Helper()
	w, ok := workload.Get(name)
	if !ok {
		t.Fatalf("workload %q missing", name)
	}
	p, err := w.Build(workload.Options{Seg: seg})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, prog *asm.Program, s device.Strategy, cyclesOfEnergy float64) *device.Result {
	t.Helper()
	d, err := device.New(fixedCfg(prog, cyclesOfEnergy), s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTimerIntervals: the timer's measured τ_B must sit at its period.
func TestTimerIntervals(t *testing.T) {
	prog := buildWorkload(t, "counter", asm.SRAM)
	res := run(t, prog, NewTimer(800, 0.1), 1e9)
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if mean := res.MeanTauB(); mean < 780 || mean > 830 {
		t.Fatalf("mean τ_B %g, want ≈800", mean)
	}
	// app bytes per backup ≈ α_B·τ_B = 80
	for _, p := range res.Periods {
		for i, ab := range p.AppBytes {
			if i == len(p.AppBytes)-1 {
				continue // final partial interval
			}
			if ab < 70 || ab > 90 {
				t.Fatalf("app bytes %d, want ≈80", ab)
			}
		}
	}
}

// TestHibernusSingleBackupPerPeriod: at most one (sleep-terminated)
// backup per failed period, and idle energy is burned after it.
func TestHibernusSingleBackupPerPeriod(t *testing.T) {
	prog := buildWorkload(t, "crc", asm.SRAM)
	res := run(t, prog, NewHibernus(), 15000)
	if !res.Completed {
		t.Fatal("incomplete")
	}
	for i, p := range res.Periods {
		final := i == len(res.Periods)-1
		if !final && p.Backups > 1 {
			t.Fatalf("period %d has %d backups; Hibernus is single-backup", i, p.Backups)
		}
		if !final && p.Backups == 1 && p.IdleCycles == 0 {
			t.Errorf("period %d backed up but never slept", i)
		}
		if !final && p.Backups == 1 && p.DeadCycles != 0 {
			t.Errorf("period %d has %d dead cycles despite hibernating", i, p.DeadCycles)
		}
	}
}

// TestHibernusSampleAllocs: a comparator sample that does not fire
// must not allocate — Hibernus samples every 16 cycles for the whole
// run, so a per-sample allocation dominates its runs' garbage.
func TestHibernusSampleAllocs(t *testing.T) {
	prog := buildWorkload(t, "crc", asm.SRAM)
	h := NewHibernus()
	d, err := device.New(fixedCfg(prog, 600_000), h)
	if err != nil {
		t.Fatal(err)
	}
	// One period on a large supply completes and leaves the capacitor
	// far above the hibernation threshold.
	if res, err := d.Run(); err != nil || !res.Completed {
		t.Fatalf("setup run: err=%v", err)
	}
	h.Boot(d)
	st := cpu.Step{Cycles: h.CheckPeriod}
	allocs := testing.AllocsPerRun(100, func() {
		if h.PostStep(d, st) != nil {
			t.Fatal("sample fired on a full capacitor")
		}
	})
	if allocs != 0 {
		t.Fatalf("non-firing Hibernus sample allocates %.1f per call, want 0", allocs)
	}
}

// TestDINOBackupsMatchTasks: every committed backup in a full-energy run
// corresponds to a task end (plus the final commit).
func TestDINOBackupsMatchTasks(t *testing.T) {
	prog := buildWorkload(t, "rsa", asm.SRAM)
	// ample energy: single period, every task commits exactly once
	res := run(t, prog, NewDINO(), 1e9)
	if !res.Completed {
		t.Fatal("incomplete")
	}
	// rsa has 6 tasks (one per message) + final commit
	if got := res.Backups(); got != 7 {
		t.Fatalf("backups = %d, want 7 (6 tasks + final)", got)
	}
}

// TestClankViolationDetection drives Clank through a crafted access
// sequence and checks the decision at each point.
func TestClankViolationDetection(t *testing.T) {
	c := NewClank()
	load := func(addr uint32) *device.Payload {
		return c.PreStep(nil, isa.Instr{}, device.AccessPreview{Valid: true, Addr: addr, Size: 4})
	}
	store := func(addr uint32) *device.Payload {
		return c.PreStep(nil, isa.Instr{}, device.AccessPreview{Valid: true, Addr: addr, Size: 4, Store: true})
	}

	if p := load(0x100); p != nil {
		t.Fatal("first load should not checkpoint")
	}
	if p := store(0x200); p != nil {
		t.Fatal("store to untouched word should not checkpoint")
	}
	if p := store(0x200); p != nil {
		t.Fatal("store to write-first word should not checkpoint")
	}
	if p := load(0x200); p != nil {
		t.Fatal("load of own write should not checkpoint")
	}
	if p := store(0x100); p == nil {
		t.Fatal("write-after-read must checkpoint")
	}
	if c.Stats().Violations != 1 {
		t.Fatalf("violations = %d", c.Stats().Violations)
	}
	// after the violation the region restarted; the same store is now
	// write-first
	if p := store(0x100); p != nil {
		t.Fatal("store after its own violation checkpoint should be clean")
	}
}

// TestClankBufferOverflow: filling the read-first buffer forces a
// checkpoint.
func TestClankBufferOverflow(t *testing.T) {
	c := NewClank()
	for i := 0; i < c.ReadFirstEntries; i++ {
		if p := c.PreStep(nil, isa.Instr{}, device.AccessPreview{Valid: true, Addr: uint32(i * 4)}); p != nil {
			t.Fatalf("load %d overflowed early", i)
		}
	}
	if p := c.PreStep(nil, isa.Instr{}, device.AccessPreview{Valid: true, Addr: 0x4000}); p == nil {
		t.Fatal("9th distinct load should overflow the 8-entry buffer")
	}
	if c.Stats().BufferFulls != 1 {
		t.Fatalf("buffer fulls = %d", c.Stats().BufferFulls)
	}
}

// TestClankResetAllocs: a checkpoint or power failure resets Clank's
// tracking buffers, and re-tracking up to their capacity must reuse the
// storage instead of allocating per region.
func TestClankResetAllocs(t *testing.T) {
	c := NewClank()
	region := func() {
		c.Reset()
		for i := 0; i < c.ReadFirstEntries; i++ {
			if c.PreStep(nil, isa.Instr{}, device.AccessPreview{Valid: true, Addr: uint32(4 * i)}) != nil {
				t.Fatal("load within capacity checkpointed")
			}
		}
		for i := 0; i < c.WriteFirstEntries; i++ {
			if c.PreStep(nil, isa.Instr{}, device.AccessPreview{Valid: true, Addr: 0x1000 + uint32(4*i), Store: true}) != nil {
				t.Fatal("store within capacity checkpointed")
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, region); allocs != 0 {
		t.Fatalf("Clank reset and re-tracking allocates %.1f per region, want 0", allocs)
	}
}

// TestAlpacaResetAllocs: every boot and commit resets Alpaca's
// privatized write set and coalesced span, and tracking as many words
// and skipped boundaries again must reuse their storage.
func TestAlpacaResetAllocs(t *testing.T) {
	a := NewAlpaca()
	task := func() {
		a.Reset()
		for i := 0; i < 64; i++ {
			if a.PreStep(nil, isa.Instr{}, device.AccessPreview{Valid: true, Addr: uint32(4 * i), Store: true}) != nil {
				t.Fatal("store tracking committed")
			}
			a.skip(uint32(i))
		}
	}
	if allocs := testing.AllocsPerRun(100, task); allocs != 0 {
		t.Fatalf("Alpaca reset and re-tracking allocates %.1f per task, want 0", allocs)
	}
}

// TestChainResetAllocs: every boot and commit resets Chain's channel
// write set, and tracking as many words again must reuse its storage.
func TestChainResetAllocs(t *testing.T) {
	c := NewChain()
	task := func() {
		c.Reset()
		for i := 0; i < 64; i++ {
			if c.PreStep(nil, isa.Instr{}, device.AccessPreview{Valid: true, Addr: uint32(4 * i), Store: true}) != nil {
				t.Fatal("store tracking committed")
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, task); allocs != 0 {
		t.Fatalf("Chain reset and re-tracking allocates %.1f per task, want 0", allocs)
	}
}

// TestClankWatchdog: with no memory traffic at all, only the watchdog
// checkpoints, at its period.
func TestClankWatchdog(t *testing.T) {
	b := asm.New("aluonly")
	b.Li(isa.R1, 0)
	b.Li(isa.R2, 40000)
	b.Label("top")
	b.Addi(isa.R1, isa.R1, 1)
	b.Blt(isa.R1, isa.R2, "top")
	b.Out(isa.R1)
	b.Halt()
	prog, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClank()
	res := run(t, prog, c, 1e9)
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if c.Stats().WatchdogFires == 0 {
		t.Fatal("watchdog never fired on an ALU-only kernel")
	}
	if c.Stats().Violations != 0 || c.Stats().BufferFulls != 0 {
		t.Fatalf("unexpected memory-driven checkpoints: %+v", c.Stats())
	}
	if mean := res.MeanTauB(); mean > float64(c.WatchdogCycles)+10 {
		t.Fatalf("mean τ_B %g exceeds watchdog %d", mean, c.WatchdogCycles)
	}
}

// TestClankStorePatternsDriveTauB: lzfx (a violation per iteration) must
// back up far more often than sha (no violations).
func TestClankStorePatternsDriveTauB(t *testing.T) {
	tau := func(name string) float64 {
		res := run(t, buildWorkload(t, name, asm.FRAM), NewClank(), 1e9)
		if !res.Completed {
			t.Fatalf("%s incomplete", name)
		}
		return res.MeanTauB()
	}
	// sha's τ_B is bounded by read-first buffer overflows on its message
	// stream, not the watchdog, so the gap is a factor rather than
	// orders of magnitude.
	lz, sh := tau("lzfx"), tau("sha")
	if lz*2 > sh {
		t.Fatalf("lzfx τ_B (%g) should be well below sha's (%g)", lz, sh)
	}
}

// TestMixedVolatilityTracksStores: α_B samples reflect the store
// footprint between watchdog backups.
func TestMixedVolatilityTracksStores(t *testing.T) {
	prog := buildWorkload(t, "ds", asm.SRAM)
	m := NewMixedVolatility(500)
	res := run(t, prog, m, 1e9)
	if !res.Completed {
		t.Fatal("incomplete")
	}
	samples := res.AlphaBSamples()
	if len(samples) == 0 {
		t.Fatal("no α_B samples")
	}
	for _, s := range samples {
		if s < 0 || s > 4 {
			t.Fatalf("α_B sample %g bytes/cycle out of plausible range", s)
		}
	}
}

// TestNVPEveryCycleTauB: per-instruction backup means τ_B of a few
// cycles.
func TestNVPEveryCycleTauB(t *testing.T) {
	prog := buildWorkload(t, "counter", asm.FRAM)
	res := run(t, prog, NewNVPEveryCycle(), 1e9)
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if mean := res.MeanTauB(); mean > 10 {
		t.Fatalf("NVP mean τ_B %g, want a few cycles", mean)
	}
}

// TestNVPThresholdSingleBackup: like Hibernus but saving only registers.
func TestNVPThresholdSingleBackup(t *testing.T) {
	prog := buildWorkload(t, "counter", asm.FRAM)
	res := run(t, prog, NewNVPThreshold(), 20000)
	if !res.Completed {
		t.Fatal("incomplete")
	}
	for i, p := range res.Periods {
		limit := 1
		if i == 0 {
			limit = 2 // cold start takes a mandatory boot checkpoint
		}
		if i < len(res.Periods)-1 && p.Backups > limit {
			t.Fatalf("period %d: %d backups in threshold NVP", i, p.Backups)
		}
	}
}

// TestMementosChecksOnlyAtSites: a program with no checkpoint sites
// never backs up under Mementos (except the final commit).
func TestMementosChecksOnlyAtSites(t *testing.T) {
	b := asm.New("nosites")
	b.Seg(asm.SRAM)
	b.Word("x", 0)
	b.La(isa.R1, "x")
	b.Li(isa.R2, 500)
	b.Li(isa.R3, 0)
	b.Label("top")
	b.Addi(isa.R3, isa.R3, 1)
	b.Blt(isa.R3, isa.R2, "top")
	b.Out(isa.R3)
	b.Halt()
	prog, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, prog, NewMementos(), 1e9)
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if res.Backups() != 1 { // final commit only
		t.Fatalf("backups = %d, want only the final commit", res.Backups())
	}
}

// TestFullPayloadCoversFootprint: the SRAM payload includes the arch
// state and the program's data footprint.
func TestFullPayloadCoversFootprint(t *testing.T) {
	prog := buildWorkload(t, "sense", asm.SRAM)
	d, err := device.New(fixedCfg(prog, 1e9), NewDINO())
	if err != nil {
		t.Fatal(err)
	}
	p := fullPayload(d)
	if p.ArchBytes != cpu.ArchStateBytes {
		t.Errorf("arch bytes %d", p.ArchBytes)
	}
	if p.AppBytes < 256 { // sense buffer is 64 words
		t.Errorf("app bytes %d below the sense buffer size", p.AppBytes)
	}
	if !p.SaveSRAM {
		t.Error("SRAM snapshot flag missing")
	}
}
