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

// same reports whether two doubles have the same bits.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSettleEdges: the settle step's guards and its clamp and
// brown-out edges, bit for bit. A harvest h ≤ 0 and a draw j ≤ 0
// return the voltage and energy they were given; a clamp returns VMax,
// ½C·VMax² and the headroom max(0, ½C·VMax² − e), which is +0 for a
// capacitor already at or above ½C·VMax²; and a draw of j ≥ e empties
// the capacitor to 0 V and 0 J and reports it dead.
func TestSettleEdges(t *testing.T) {
	s := Settle{HC: 0.5 * 100e-6, VMax: 5}
	eMax := s.HC * 5 * 5
	v := 3.3
	e := s.Energy(v)
	for _, h := range []float64{0, math.Copysign(0, -1), -1e-9, math.Inf(-1)} {
		gv, ge, ga, clamped := s.Credit(v, e, h)
		if !same(gv, v) || !same(ge, e) || !same(ga, 0) || clamped {
			t.Errorf("Credit(%v, %v, %v) = %v, %v, %v, %v; want the input state, +0 absorbed, no clamp",
				v, e, h, gv, ge, ga, clamped)
		}
	}
	for _, j := range []float64{0, math.Copysign(0, -1), -1e-9, math.Inf(-1)} {
		gv, ge, ok := s.Draw(v, e, j)
		if !same(gv, v) || !same(ge, e) || !ok {
			t.Errorf("Draw(%v, %v, %v) = %v, %v, %v; want the input state, alive", v, e, j, gv, ge, ok)
		}
	}
	for _, c := range []struct {
		name    string
		v, e, h float64
		absorb  float64
	}{
		{"far past the rating", v, e, 1, eMax - e},
		{"infinite harvest", v, e, math.Inf(1), eMax - e},
		{"empty", 0, 0, 1, eMax},
		{"full", 5, eMax, 1e-12, 0},
		{"above the rating", 5, math.Nextafter(eMax, 1), 1e-12, 0},
	} {
		gv, ge, ga, clamped := s.Credit(c.v, c.e, c.h)
		if !same(gv, 5) || !same(ge, eMax) || !same(ga, c.absorb) || !clamped {
			t.Errorf("%s: Credit = %v, %v, %v, %v; want 5, %v, %v, clamped", c.name, gv, ge, ga, clamped, eMax, c.absorb)
		}
	}
	for _, j := range []float64{e, math.Nextafter(e, 1), 2 * e, math.Inf(1)} {
		gv, ge, ok := s.Draw(v, e, j)
		if !same(gv, 0) || !same(ge, 0) || ok {
			t.Errorf("Draw(%v, %v, %v) = %v, %v, %v; want 0, 0, dead", v, e, j, gv, ge, ok)
		}
	}
}

// storeRef and drawRef are the reference forms of Capacitor.Store and
// Draw, on a capacitor of capacitance c rated vMax at voltage v, with
// the voltage of an energy e written as the textbook √(2e/C). Each
// returns the new voltage, and the energy absorbed or whether the
// capacitor survived.
func storeRef(c, vMax, v, j float64) (float64, float64) {
	if j <= 0 {
		return v, 0
	}
	e := 0.5*c*v*v + j
	if vNew := math.Sqrt(2 * e / c); vNew <= vMax {
		return vNew, j
	}
	return vMax, math.Max(0, 0.5*c*vMax*vMax-0.5*c*v*v)
}

func drawRef(c, v, j float64) (float64, bool) {
	if j <= 0 {
		return v, true
	}
	e := 0.5*c*v*v - j
	if e <= 0 {
		return 0, false
	}
	return math.Sqrt(2 * e / c), true
}

// TestPropSettleVoltage: on random capacitors, voltages and amounts,
// the settle step's voltage √(e/½C) has the bits of √(2e/C), its
// credit and draw those of storeRef and drawRef, and its energy those
// of ½C·v²; Store and Draw on a Capacitor agree with the step.
func TestPropSettleVoltage(t *testing.T) {
	const n = 200000
	var clamps, deaths int
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		capC := math.Ldexp(1+rng.Float64(), -40+rng.Intn(40)) // 1e-12 F to 1 F
		vMax := 0.5 + 10*rng.Float64()
		v0 := vMax * rng.Float64()
		s := Settle{HC: 0.5 * capC, VMax: vMax}
		e := 0.5 * capC * v0 * v0
		amount := e * math.Ldexp(rng.Float64(), 4-rng.Intn(60)) // up to 16e, down to ~1e-17 e

		if got, want := s.voltage(e), math.Sqrt(2*e/capC); !same(got, want) {
			t.Fatalf("C=%v e=%v: voltage %v, √(2e/C) %v", capC, e, got, want)
		}

		wantV, wantA := storeRef(capC, vMax, v0, amount)
		gv, ge, ga, clamped := s.Credit(v0, e, amount)
		if clamped {
			clamps++
		}
		if !same(gv, wantV) || !same(ge, 0.5*capC*wantV*wantV) || !same(ga, wantA) {
			t.Fatalf("C=%v VMax=%v v=%v h=%v: Credit = %v, %v, %v; want %v, %v, %v",
				capC, vMax, v0, amount, gv, ge, ga, wantV, 0.5*capC*wantV*wantV, wantA)
		}
		c := &Capacitor{C: capC, VMax: vMax, v: v0}
		if a := c.Store(amount); !same(c.v, gv) || !same(a, ga) {
			t.Fatalf("C=%v VMax=%v v=%v h=%v: Store left %v and absorbed %v, the step %v and %v",
				capC, vMax, v0, amount, c.v, a, gv, ga)
		}

		wantV, wantOK := drawRef(capC, v0, amount)
		gv, ge, ok := s.Draw(v0, e, amount)
		if !ok {
			deaths++
		}
		if !same(gv, wantV) || !same(ge, 0.5*capC*wantV*wantV) || ok != wantOK {
			t.Fatalf("C=%v v=%v j=%v: Draw = %v, %v, %v; want %v, %v, %v",
				capC, v0, amount, gv, ge, ok, wantV, 0.5*capC*wantV*wantV, wantOK)
		}
		c = &Capacitor{C: capC, VMax: vMax, v: v0}
		if ok := c.Draw(amount); !same(c.v, gv) || ok != wantOK {
			t.Fatalf("C=%v v=%v j=%v: Draw left %v (%v), the step %v (%v)", capC, v0, amount, c.v, ok, gv, wantOK)
		}
	}
	if clamps == 0 || deaths == 0 {
		t.Fatalf("of %d cases %d credits clamped and %d draws emptied the capacitor; want some of each", n, clamps, deaths)
	}
	t.Logf("of %d cases %d credits clamped and %d draws emptied the capacitor", n, clamps, deaths)
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
	for _, f := range []float64{0, math.NaN(), math.Inf(1)} {
		pm := MSP430Power()
		pm.FreqHz = f
		if err := pm.Validate(); err == nil {
			t.Errorf("frequency %v accepted", f)
		}
	}
	for _, p := range []float64{-1, math.NaN(), math.Inf(1)} {
		pm := MSP430Power()
		pm.PowerW[ClassMem] = p
		if err := pm.Validate(); err == nil {
			t.Errorf("power %v accepted", p)
		}
	}
	pm := MSP430Power()
	pm.PowerW[ClassALU] = 0
	if err := pm.Validate(); err != nil {
		t.Errorf("a 0 W class rejected: %v", err)
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
