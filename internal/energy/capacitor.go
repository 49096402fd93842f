// Package energy models the power side of an energy-harvesting device
// (Fig. 1 of the paper): a transducer harvesting from an ambient source,
// a storage capacitor with power-on/power-off thresholds, the
// microcontroller power model that converts instruction classes to
// joules per cycle, and an ADC-style voltage monitor.
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
func (c *Capacitor) Energy() float64 { return 0.5 * c.C * c.v * c.v }

// SetVoltage forces the voltage (clamped to [0, VMax]); used to reset
// simulations.
func (c *Capacitor) SetVoltage(v float64) {
	c.v = math.Max(0, math.Min(v, c.VMax))
}

// Store deposits j joules, clamping at the rated voltage. It returns the
// energy actually absorbed (excess is discarded, as a real regulator
// would shunt it).
func (c *Capacitor) Store(j float64) float64 {
	if j <= 0 {
		return 0
	}
	e := c.Energy() + j
	vNew := math.Sqrt(2 * e / c.C)
	if vNew > c.VMax {
		absorbed := 0.5*c.C*c.VMax*c.VMax - c.Energy()
		c.v = c.VMax
		return math.Max(0, absorbed)
	}
	c.v = vNew
	return j
}

// Draw removes j joules. If the store holds less than j the capacitor is
// emptied and Draw reports false — the draw that caused the brownout.
func (c *Capacitor) Draw(j float64) bool {
	if j <= 0 {
		return true
	}
	e := c.Energy() - j
	if e <= 0 {
		c.v = 0
		return false
	}
	c.v = math.Sqrt(2 * e / c.C)
	return true
}

// UsableEnergy returns the energy available between two voltage
// thresholds, ½·C·(vHi² − vLo²) — the paper's per-active-period supply E
// when vHi = V_on and vLo = V_off.
func (c *Capacitor) UsableEnergy(vHi, vLo float64) float64 {
	return 0.5 * c.C * (vHi*vHi - vLo*vLo)
}
