// Package energy models the power side of an energy-harvesting device
// (Fig. 1 of the paper): a transducer harvesting from an ambient source,
// a storage capacitor with power-on/power-off thresholds, and the
// microcontroller power model that converts instruction classes to
// joules per cycle.
package energy

import (
	"fmt"
	"math"
)

// Capacitor stores harvested energy. Voltage and capacitance determine
// stored energy E = ½·C·V².
type Capacitor struct {
	C    float64 // capacitance in farads, > 0
	VMax float64 // maximum (rated) voltage, > 0
	v    float64 // current voltage
}

// NewCapacitor returns a capacitor at the given initial voltage.
func NewCapacitor(c, vMax, v0 float64) (*Capacitor, error) {
	if c <= 0 {
		return nil, fmt.Errorf("energy: capacitance must be > 0, got %g", c)
	}
	if vMax <= 0 {
		return nil, fmt.Errorf("energy: rated voltage must be > 0, got %g", vMax)
	}
	if v0 < 0 || v0 > vMax {
		return nil, fmt.Errorf("energy: initial voltage %g outside [0, %g]", v0, vMax)
	}
	return &Capacitor{C: c, VMax: vMax, v: v0}, nil
}

// Voltage returns the current voltage.
func (c *Capacitor) Voltage() float64 { return c.v }

// Energy returns the stored energy ½CV² in joules.
func (c *Capacitor) Energy() float64 { return c.Settle().Energy(c.v) }

// Settle returns the capacitor's settle step.
func (c *Capacitor) Settle() Settle { return Settle{HC: 0.5 * c.C, VMax: c.VMax} }

// SetVoltage forces the voltage (clamped to [0, VMax]); used to reset
// simulations.
func (c *Capacitor) SetVoltage(v float64) {
	c.v = math.Max(0, math.Min(v, c.VMax))
}

// Store deposits j joules, clamping at the rated voltage. It returns the
// energy actually absorbed (excess is discarded, as a real regulator
// would shunt it).
func (c *Capacitor) Store(j float64) float64 {
	s := c.Settle()
	var absorbed float64
	c.v, _, absorbed, _ = s.Credit(c.v, s.Energy(c.v), j)
	return absorbed
}

// Draw removes j joules. If the store holds less than j the capacitor is
// emptied and Draw reports false — the draw that caused the brownout.
func (c *Capacitor) Draw(j float64) bool {
	s := c.Settle()
	var ok bool
	c.v, _, ok = s.Draw(c.v, s.Energy(c.v), j)
	return ok
}

// UsableEnergy returns the energy available between two voltage
// thresholds, ½·C·(vHi² − vLo²) — the paper's per-active-period supply E
// when vHi = V_on and vLo = V_off.
func (c *Capacitor) UsableEnergy(vHi, vLo float64) float64 {
	return 0.5 * c.C * (vHi*vHi - vLo*vLo)
}

// Settle is the capacitor's settle step: the one law every engine
// charges and discharges the capacitor by. It works on values, a
// voltage v and the energy e = ½C·v² it holds, and each half returns
// both updated, so a loop can carry them in registers; Store and Draw
// are the same halves applied to a Capacitor. Both halves stay small
// enough for the compiler to inline into the fused loops (make
// inline-check), which is why they spell ½C·v² out instead of calling
// Energy.
//
// The voltage of an energy is √(e/½C), the only square root of
// capacitor energy in the simulator. It has the bits of √(2e/C), the
// textbook form: halving a normal C and doubling an e short of
// overflow are exact in binary floating point, so both forms perform
// one correctly rounded division of the same real number 2e/C, then
// one correctly rounded square root.
type Settle struct {
	HC   float64 // ½C, half the capacitance in farads
	VMax float64 // the rated voltage the charge clamps at
}

// Energy returns ½C·v², the energy held at voltage v.
func (s Settle) Energy(v float64) float64 { return s.HC * v * v }

// voltage returns √(e/½C), the voltage at which the capacitor holds e.
func (s Settle) voltage(e float64) float64 { return math.Sqrt(e / s.HC) }

// Credit deposits a harvest of h joules into a capacitor at voltage v
// holding e. It returns the new voltage and energy, the joules
// absorbed and whether the charge clamped. Unclamped, the capacitor
// absorbs all of h. A charge that would pass VMax clamps: the voltage
// stops at VMax and the capacitor absorbs only the headroom
// max(0, ½C·VMax² − e), as a real regulator shunts the excess. A
// harvest h ≤ 0 changes nothing.
func (s Settle) Credit(v, e, h float64) (float64, float64, float64, bool) {
	if h <= 0 {
		return v, e, 0, false
	}
	if v = s.voltage(e + h); v > s.VMax {
		eMax := s.HC * s.VMax * s.VMax
		return s.VMax, eMax, max(0, eMax-e), true
	}
	return v, s.HC * v * v, h, false
}

// Draw removes j joules from a capacitor at voltage v holding e. It
// returns the new voltage and energy, and false when the capacitor
// held no more than j: it is then empty, at 0 V and 0 J. A draw j ≤ 0
// changes nothing.
func (s Settle) Draw(v, e, j float64) (float64, float64, bool) {
	if j <= 0 {
		return v, e, true
	}
	if e -= j; e <= 0 {
		return 0, 0, false
	}
	v = s.voltage(e)
	return v, s.HC * v * v, true
}
