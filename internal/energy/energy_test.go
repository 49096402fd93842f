package energy

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ehmodel/internal/trace"
)

func TestNewCapacitorValidation(t *testing.T) {
	if _, err := NewCapacitor(0, 5, 1); err == nil {
		t.Error("zero capacitance accepted")
	}
	if _, err := NewCapacitor(1e-6, 0, 0); err == nil {
		t.Error("zero rated voltage accepted")
	}
	if _, err := NewCapacitor(1e-6, 5, 6); err == nil {
		t.Error("initial voltage above rating accepted")
	}
	if _, err := NewCapacitor(1e-6, 5, -1); err == nil {
		t.Error("negative initial voltage accepted")
	}
}

func TestCapacitorEnergy(t *testing.T) {
	c, err := NewCapacitor(100e-6, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * 100e-6 * 9
	if got := c.Energy(); math.Abs(got-want) > 1e-15 {
		t.Errorf("E = %g, want %g", got, want)
	}
}

func TestCapacitorStoreDraw(t *testing.T) {
	c, _ := NewCapacitor(100e-6, 5, 0)
	in := c.Store(1e-3)
	if in != 1e-3 {
		t.Errorf("absorbed %g, want all", in)
	}
	if got := c.Energy(); math.Abs(got-1e-3) > 1e-12 {
		t.Errorf("stored energy %g", got)
	}
	if !c.Draw(0.5e-3) {
		t.Error("draw within budget should succeed")
	}
	if c.Draw(10) {
		t.Error("overdraw should report failure")
	}
	if c.Voltage() != 0 {
		t.Error("overdraw should empty the capacitor")
	}
}

func TestCapacitorClampsAtRating(t *testing.T) {
	c, _ := NewCapacitor(100e-6, 5, 4.9)
	absorbed := c.Store(1) // way more than the headroom
	if c.Voltage() != 5 {
		t.Errorf("voltage %g, want clamp at 5", c.Voltage())
	}
	headroom := 0.5 * 100e-6 * (25 - 4.9*4.9)
	if math.Abs(absorbed-headroom) > 1e-12 {
		t.Errorf("absorbed %g, want headroom %g", absorbed, headroom)
	}
}

func TestCapacitorUsableEnergy(t *testing.T) {
	c, _ := NewCapacitor(100e-6, 5, 0)
	want := 0.5 * 100e-6 * (2.99*2.99 - 1.88*1.88)
	if got := c.UsableEnergy(2.99, 1.88); math.Abs(got-want) > 1e-15 {
		t.Errorf("usable = %g, want %g", got, want)
	}
}

func TestSetVoltageClamps(t *testing.T) {
	c, _ := NewCapacitor(1e-6, 5, 0)
	c.SetVoltage(99)
	if c.Voltage() != 5 {
		t.Errorf("clamp high: %g", c.Voltage())
	}
	c.SetVoltage(-1)
	if c.Voltage() != 0 {
		t.Errorf("clamp low: %g", c.Voltage())
	}
}

// Property: a Store followed by a Draw of the same amount restores the
// stored energy (within float tolerance), provided no clamping occurs.
func TestPropCapacitorConservation(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Float64() * 2)    // v0 in [0,2)
			vals[1] = reflect.ValueOf(r.Float64() * 1e-4) // j well below headroom
		},
	}
	f := func(v0, j float64) bool {
		c, err := NewCapacitor(100e-6, 10, v0)
		if err != nil {
			return true
		}
		e0 := c.Energy()
		c.Store(j)
		if !c.Draw(j) {
			return true // drained to zero: allowed when e0 ≈ 0
		}
		return math.Abs(c.Energy()-e0) < 1e-12
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestHarvesterValidation(t *testing.T) {
	src := trace.Constant(3, 1, 0.01)
	if _, err := NewHarvester(nil, 1, 1); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := NewHarvester(src, 0, 1); err == nil {
		t.Error("zero resistance accepted")
	}
	if _, err := NewHarvester(src, 1, 0); err == nil {
		t.Error("zero efficiency accepted")
	}
	if _, err := NewHarvester(src, 1, 1.5); err == nil {
		t.Error("efficiency above 1 accepted")
	}
}

// TestHarvesterRejectsUnusableTrace: a trace with no voltage at some
// instant fails at construction, before any engine can settle its NaN
// harvest. Each row breaks one requirement of an otherwise valid trace.
func TestHarvesterRejectsUnusableTrace(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name    string
		samples []float64
		period  float64
		r, eta  float64
	}{
		{"no samples", nil, 1e-3, 1000, 0.7},
		{"NaN samples", []float64{nan, nan}, 1e-3, 1000, 0.7},
		{"one NaN sample", []float64{2, nan, 3}, 1e-3, 1000, 0.7},
		{"+Inf sample", []float64{2, inf}, 1e-3, 1000, 0.7},
		{"-Inf sample", []float64{-inf, 2}, 1e-3, 1000, 0.7},
		{"zero period", []float64{2, 3}, 0, 1000, 0.7},
		{"negative period", []float64{2, 3}, -1e-3, 1000, 0.7},
		{"NaN period", []float64{2, 3}, nan, 1000, 0.7},
		{"+Inf period", []float64{2, 3}, inf, 1000, 0.7},
		{"NaN resistance", []float64{2, 3}, 1e-3, nan, 0.7},
		{"NaN efficiency", []float64{2, 3}, 1e-3, 1000, nan},
	} {
		src := &trace.Trace{Name: tc.name, SamplesV: tc.samples, PeriodS: tc.period}
		if _, err := NewHarvester(src, tc.r, tc.eta); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The boundaries stay open: one sample, a 0 V or negative sample
	// (the transducer delivers nothing) and the largest finite values.
	for _, samples := range [][]float64{{2}, {0, -1, 3}, {math.MaxFloat64, -math.MaxFloat64}} {
		src := &trace.Trace{Name: "edge", SamplesV: samples, PeriodS: math.MaxFloat64}
		if _, err := NewHarvester(src, 1000, 0.7); err != nil {
			t.Errorf("samples %v: %v", samples, err)
		}
	}
}

func TestHarvesterPower(t *testing.T) {
	src := trace.Constant(2, 1, 0.01)
	h, err := NewHarvester(src, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * 4 / 100
	if got := h.PowerAt(0.5); math.Abs(got-want) > 1e-15 {
		t.Errorf("P = %g, want %g", got, want)
	}
	if got := h.EnergyOver(0, 0.1); math.Abs(got-want*0.1) > 1e-15 {
		t.Errorf("E = %g, want %g", got, want*0.1)
	}
}

func TestHarvesterZeroVoltage(t *testing.T) {
	src := trace.Constant(0, 1, 0.01)
	h, _ := NewHarvester(src, 100, 1)
	if got := h.PowerAt(0.3); got != 0 {
		t.Errorf("power at 0 V = %g", got)
	}
}

func TestMSP430PowerNumbers(t *testing.T) {
	pm := MSP430Power()
	if err := pm.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1.2 mW @16 MHz = 75 pJ/cycle for memory ops
	if got := pm.EnergyPerCycle(ClassMem); math.Abs(got-75e-12) > 1e-15 {
		t.Errorf("mem energy/cycle = %g, want 75 pJ", got)
	}
	// 1.05 mW @16 MHz = 65.625 pJ/cycle
	if got := pm.EnergyPerCycle(ClassALU); math.Abs(got-65.625e-12) > 1e-15 {
		t.Errorf("alu energy/cycle = %g, want 65.625 pJ", got)
	}
	if got := pm.CyclePeriod(); math.Abs(got-62.5e-9) > 1e-18 {
		t.Errorf("cycle period = %g, want 62.5 ns", got)
	}
}

func TestCortexM0Power(t *testing.T) {
	pm := CortexM0Power()
	if err := pm.Validate(); err != nil {
		t.Fatal(err)
	}
	if pm.EnergyPerCycle(ClassMem) <= pm.EnergyPerCycle(ClassALU) {
		t.Error("memory ops should cost more than ALU ops")
	}
	if pm.EnergyPerCycle(ClassIdle) >= pm.EnergyPerCycle(ClassALU) {
		t.Error("idle should cost less than active")
	}
}

func TestEnergyPerCycleOutOfRange(t *testing.T) {
	pm := MSP430Power()
	if got := pm.EnergyPerCycle(InstrClass(99)); got != pm.EnergyPerCycle(ClassALU) {
		t.Errorf("out-of-range class should default to ALU, got %g", got)
	}
}

func TestPowerModelValidate(t *testing.T) {
	pm := MSP430Power()
	pm.FreqHz = 0
	if err := pm.Validate(); err == nil {
		t.Error("zero frequency accepted")
	}
	pm = MSP430Power()
	pm.PowerW[ClassMem] = -1
	if err := pm.Validate(); err == nil {
		t.Error("negative power accepted")
	}
}

func TestMonitor(t *testing.T) {
	m := Monitor{ThresholdV: 2.2, CheckCost: 1e-9, CheckPeriod: 100}
	if !m.ShouldSample(0) || !m.ShouldSample(200) {
		t.Error("sampling on period boundaries expected")
	}
	if m.ShouldSample(50) {
		t.Error("no sample off-period")
	}
	if !m.Fired(2.2) || !m.Fired(1.0) {
		t.Error("threshold crossing not detected")
	}
	if m.Fired(3.0) {
		t.Error("false trigger above threshold")
	}
	every := Monitor{CheckPeriod: 0}
	if !every.ShouldSample(7) {
		t.Error("period 0 means every cycle")
	}
}

func TestInstrClassString(t *testing.T) {
	if ClassALU.String() != "alu" || ClassMem.String() != "mem" || ClassIdle.String() != "idle" {
		t.Error("class names wrong")
	}
	if InstrClass(9).String() == "" {
		t.Error("unknown class should still render")
	}
}
