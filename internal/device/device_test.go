package device

import (
	"errors"
	"math"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/cpu"
	"ehmodel/internal/energy"
	"ehmodel/internal/isa"
	"ehmodel/internal/mem"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// nullStrategy never backs up except at halt; used to exercise the
// device machinery in isolation.
type nullStrategy struct{}

func (nullStrategy) Name() string                                       { return "null" }
func (nullStrategy) Attach(*Device)                                     {}
func (nullStrategy) Boot(*Device) *Payload                              { return nil }
func (nullStrategy) PreStep(*Device, isa.Instr, AccessPreview) *Payload { return nil }
func (nullStrategy) PostStep(*Device, cpu.Step) *Payload                { return nil }
func (nullStrategy) FinalPayload(*Device) Payload                       { return Payload{ArchBytes: cpu.ArchStateBytes} }
func (nullStrategy) ReplaySafe() bool                                   { return true }
func (nullStrategy) Reset()                                             {}
func (nullStrategy) Horizon(*Device) uint64                             { return 1 }

// intervalStrategy backs up (registers only) every k executed cycles.
type intervalStrategy struct {
	nullStrategy
	k uint64
}

func (s intervalStrategy) Name() string { return "interval" }
func (s intervalStrategy) PostStep(d *Device, _ cpu.Step) *Payload {
	if d.ExecSinceBackup() >= s.k {
		return &Payload{ArchBytes: cpu.ArchStateBytes, SaveSRAM: true}
	}
	return nil
}
func (s intervalStrategy) FinalPayload(*Device) Payload {
	return Payload{ArchBytes: cpu.ArchStateBytes, SaveSRAM: true}
}

// loopProgram increments a memory counter n times and outputs it.
func loopProgram(t *testing.T, n uint32, seg asm.Segment) *asm.Program {
	t.Helper()
	b := asm.New("loop")
	b.Seg(seg)
	b.Word("count", 0)
	b.La(isa.R1, "count")
	b.Li(isa.R2, n)
	b.Li(isa.R3, 0)
	b.Label("top")
	b.Lw(isa.R4, isa.R1, 0)
	b.Addi(isa.R4, isa.R4, 1)
	b.Sw(isa.R4, isa.R1, 0)
	b.Addi(isa.R3, isa.R3, 1)
	b.Blt(isa.R3, isa.R2, "top")
	b.Lw(isa.R4, isa.R1, 0)
	b.Out(isa.R4)
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func fixedConfig(t *testing.T, prog *asm.Program, eJoules float64) Config {
	t.Helper()
	c, vmax, von, voff := FixedSupplyConfig(eJoules)
	return Config{
		Prog:    prog,
		Power:   energy.MSP430Power(),
		CapC:    c,
		CapVMax: vmax,
		VOn:     von,
		VOff:    voff,
	}
}

func TestConfigValidation(t *testing.T) {
	prog := loopProgram(t, 10, asm.SRAM)
	good := fixedConfig(t, prog, 1e-6)
	muts := map[string]func(*Config){
		"nil program":    func(c *Config) { c.Prog = nil },
		"bad power":      func(c *Config) { c.Power.FreqHz = 0 },
		"zero cap":       func(c *Config) { c.CapC = 0 },
		"NaN cap":        func(c *Config) { c.CapC = math.NaN() },
		"infinite cap":   func(c *Config) { c.CapC = math.Inf(1) },
		"infinite vmax":  func(c *Config) { c.CapVMax = math.Inf(1) },
		"von above vmax": func(c *Config) { c.VOn = c.CapVMax + 1 },
		"voff above von": func(c *Config) { c.VOff = c.VOn },
		"neg sigmaB":     func(c *Config) { c.SigmaB = -1 },
		"neg omega":      func(c *Config) { c.OmegaBExtra = -1 },
	}
	for name, mut := range muts {
		cfg := good
		mut(&cfg)
		if _, err := New(cfg, nullStrategy{}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := New(good, nil); err == nil {
		t.Error("nil strategy accepted")
	}
}

func TestContinuousEquivalence(t *testing.T) {
	prog := loopProgram(t, 500, asm.SRAM)
	ms, err := mem.NewSystem(mem.DefaultSRAMSize, mem.DefaultFRAMSize)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.ProfileProgram(ms, prog, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Output) != 1 || p.Output[0] != 500 {
		t.Fatalf("continuous output %v", p.Output)
	}
	if p.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

// TestAmpleEnergySinglePeriod: with a supply far larger than the
// program, the run completes in one active period with no dead energy.
func TestAmpleEnergySinglePeriod(t *testing.T) {
	prog := loopProgram(t, 200, asm.SRAM)
	d, err := New(fixedConfig(t, prog, 1.0), intervalStrategy{k: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if len(res.Periods) != 1 {
		t.Fatalf("expected 1 period, got %d", len(res.Periods))
	}
	if res.Periods[0].DeadCycles != 0 {
		t.Errorf("dead cycles %d in a completed single period", res.Periods[0].DeadCycles)
	}
	if got := res.Output; len(got) != 1 || got[0] != 200 {
		t.Fatalf("output %v", got)
	}
}

// TestIntermittentEquivalence: with a small supply the run spans many
// periods yet produces the identical output.
func TestIntermittentEquivalence(t *testing.T) {
	prog := loopProgram(t, 2000, asm.SRAM)
	// ~3000 cycles of energy per period
	e := 3000 * energy.MSP430Power().EnergyPerCycle(energy.ClassALU)
	d, err := New(fixedConfig(t, prog, e), intervalStrategy{k: 500})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run did not complete in %d periods", len(res.Periods))
	}
	if len(res.Periods) < 3 {
		t.Fatalf("expected many periods, got %d", len(res.Periods))
	}
	if len(res.Output) != 1 || res.Output[0] != 2000 {
		t.Fatalf("output %v, want [2000]", res.Output)
	}
	if res.Backups() == 0 || res.Restores() == 0 {
		t.Error("expected backups and restores")
	}
}

// TestNoBackupNoProgress: a strategy that never backs up re-executes the
// same prefix forever — the "perpetual restart loop" of the paper's
// abstract.
func TestNoBackupNoProgress(t *testing.T) {
	prog := loopProgram(t, 100000, asm.SRAM) // too big for one period
	e := 2000 * energy.MSP430Power().EnergyPerCycle(energy.ClassALU)
	cfg := fixedConfig(t, prog, e)
	cfg.MaxPeriods = 20
	d, err := New(cfg, nullStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("run should not complete")
	}
	if res.MeasuredProgress() != 0 {
		t.Errorf("no backups should mean zero progress, got %g", res.MeasuredProgress())
	}
	for _, p := range res.Periods {
		if p.ProgressCycles != 0 {
			t.Error("progress cycles without a backup")
		}
		if p.DeadCycles == 0 {
			t.Error("every period should be dead")
		}
	}
}

// TestEnergyConservation: per period, the accounted energy categories
// never exceed supply + harvested (they may undershoot because the
// period ends with residual charge below VOff).
func TestEnergyConservation(t *testing.T) {
	prog := loopProgram(t, 3000, asm.SRAM)
	e := 2500 * energy.MSP430Power().EnergyPerCycle(energy.ClassALU)
	d, err := New(fixedConfig(t, prog, e), intervalStrategy{k: 400})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Periods {
		used := p.ProgressE + p.DeadE + p.BackupE + p.RestoreE + p.IdleE
		budget := p.SupplyE + p.HarvestedE + 0.5*fixedConfig(t, prog, e).CapC*fixedConfig(t, prog, e).VOff*fixedConfig(t, prog, e).VOff
		if used > budget*(1+1e-9) {
			t.Errorf("period %d used %g > budget %g", i, used, budget)
		}
		if p.SupplyE <= 0 {
			t.Errorf("period %d has no supply", i)
		}
	}
}

// TestProgressFractionsSane: measured progress lies in (0, 1] for a
// completing intermittent run.
func TestProgressFractionsSane(t *testing.T) {
	prog := loopProgram(t, 2000, asm.SRAM)
	e := 3000 * energy.MSP430Power().EnergyPerCycle(energy.ClassALU)
	d, _ := New(fixedConfig(t, prog, e), intervalStrategy{k: 500})
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := res.MeasuredProgress()
	if p <= 0 || p > 1 {
		t.Fatalf("measured progress %g out of range", p)
	}
	cp := res.CycleProgress()
	if cp <= 0 || cp > 1 {
		t.Fatalf("cycle progress %g out of range", cp)
	}
}

// TestSmallerTauBLessDead: more frequent backups reduce total dead
// energy.
func TestSmallerTauBLessDead(t *testing.T) {
	prog := loopProgram(t, 4000, asm.SRAM)
	e := 3000 * energy.MSP430Power().EnergyPerCycle(energy.ClassALU)
	dead := func(k uint64) float64 {
		d, err := New(fixedConfig(t, prog, e), intervalStrategy{k: k})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("k=%d did not complete", k)
		}
		return res.Breakdown().Dead
	}
	if d1, d2 := dead(200), dead(2400); d1 >= d2 {
		t.Errorf("dead energy should shrink with frequent backups: %g vs %g", d1, d2)
	}
}

// TestBackupIntervalsTrackTauB: the interval strategy's measured τ_B
// matches its period within the granularity of instruction lengths.
func TestBackupIntervalsTrackTauB(t *testing.T) {
	prog := loopProgram(t, 5000, asm.SRAM)
	d, _ := New(fixedConfig(t, prog, 1.0), intervalStrategy{k: 700})
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	mean := res.MeanTauB()
	if math.Abs(mean-700) > 20 {
		t.Fatalf("mean τ_B %g, want ≈700", mean)
	}
}

// TestFixedSupplyConfig: usable energy between the thresholds equals the
// requested E.
func TestFixedSupplyConfig(t *testing.T) {
	c, vmax, von, voff := FixedSupplyConfig(1e-5)
	if von > vmax || voff >= von {
		t.Fatal("threshold ordering broken")
	}
	usable := 0.5 * c * (von*von - voff*voff)
	if math.Abs(usable-1e-5) > 1e-12 {
		t.Fatalf("usable %g, want 1e-5", usable)
	}
}

func TestPayloadBytes(t *testing.T) {
	p := Payload{ArchBytes: 72, AppBytes: 100}
	if p.Bytes() != 172 {
		t.Fatalf("Bytes = %d", p.Bytes())
	}
}

// TestFRAMPersistsAcrossPeriods: nonvolatile data written before a power
// failure survives it.
func TestFRAMPersistsAcrossPeriods(t *testing.T) {
	prog := loopProgram(t, 3000, asm.FRAM) // counter lives in FRAM
	e := 2500 * energy.MSP430Power().EnergyPerCycle(energy.ClassALU)
	d, err := New(fixedConfig(t, prog, e), intervalStrategy{k: 300})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || len(res.Output) != 1 {
		t.Fatalf("run failed: completed=%v out=%v", res.Completed, res.Output)
	}
	// NOTE: with data in FRAM and a register checkpoint restoring the
	// loop, replay re-increments counter words written after the last
	// backup — unless the strategy is WAR-aware (Clank). The interval
	// strategy snapshots SRAM only, so the FRAM counter may legally
	// exceed N here; what must hold is that it is at least N.
	if res.Output[0] < 3000 {
		t.Fatalf("FRAM counter %d lost increments", res.Output[0])
	}
}

// TestNoProgressTypedError: a harvester that can never refill the
// capacitor to VOn must end the run with the typed ErrNoProgress, not an
// endless charge loop — and the error must carry the stall evidence.
func TestNoProgressTypedError(t *testing.T) {
	prog := loopProgram(t, 100000, asm.SRAM)
	e := 2000 * energy.MSP430Power().EnergyPerCycle(energy.ClassALU)
	cfg := fixedConfig(t, prog, e)
	h, err := energy.NewHarvester(trace.Constant(0, 1, 1e-3), 1000, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Harvester = h
	d, err := New(cfg, intervalStrategy{k: 500})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Run()
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("Run() = %v, want ErrNoProgress", err)
	}
	var np *NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("error %T does not carry NoProgressError", err)
	}
	if np.TargetV != cfg.VOn {
		t.Errorf("TargetV = %g, want VOn %g", np.TargetV, cfg.VOn)
	}
	if np.StuckV >= cfg.VOn {
		t.Errorf("StuckV %g should sit below VOn %g", np.StuckV, cfg.VOn)
	}
	if np.Periods != 0 {
		t.Errorf("Periods = %d, want 0 for a supply dead from the start", np.Periods)
	}
}
