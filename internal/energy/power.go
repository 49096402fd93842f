package energy

import (
	"fmt"
	"math"
)

// InstrClass buckets instructions by their power draw, following the
// paper's EnergyTrace measurement: "Load and store operations to memory
// consume 1.2 mW while all other instructions consume 1.05 mW" (§V-A).
type InstrClass int

const (
	// ClassALU covers arithmetic, logic, branches and moves.
	ClassALU InstrClass = iota
	// ClassMem covers loads and stores.
	ClassMem
	// ClassIdle covers stalled or sleeping cycles.
	ClassIdle
	numClasses
)

// NumClasses is the number of defined instruction classes, for callers
// that precompute per-class lookup tables.
const NumClasses = int(numClasses)

func (c InstrClass) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassMem:
		return "mem"
	case ClassIdle:
		return "idle"
	}
	return fmt.Sprintf("InstrClass(%d)", int(c))
}

// PowerModel converts instruction classes to energy per cycle at a fixed
// clock frequency.
type PowerModel struct {
	FreqHz float64             // core clock
	PowerW [numClasses]float64 // power draw per class (W)
}

// MSP430Power returns the power model measured in §V-A of the paper on
// the MSP430FR5994 LaunchPad: 1.2 mW for memory operations, 1.05 mW for
// everything else, at a 16 MHz clock (the FRAM speed grade the paper's
// backup-bandwidth discussion uses). Idle draw is taken as 10% of ALU
// power, representing a low-power wait mode.
func MSP430Power() PowerModel {
	return PowerModel{
		FreqHz: 16e6,
		PowerW: [numClasses]float64{
			ClassALU:  1.05e-3,
			ClassMem:  1.2e-3,
			ClassIdle: 0.105e-3,
		},
	}
}

// CortexM0Power returns a power model for an ARM Cortex-M0+-class core
// (the Clank substrate of §V-B), using the ~30 µA/MHz active current of
// an STM32L0-class part at 3 V and 16 MHz.
func CortexM0Power() PowerModel {
	const activeW = 30e-6 * 16 * 3 // 30 µA/MHz · 16 MHz · 3 V = 1.44 mW
	return PowerModel{
		FreqHz: 16e6,
		PowerW: [numClasses]float64{
			ClassALU:  activeW,
			ClassMem:  activeW * 1.15, // memory ops draw slightly more
			ClassIdle: activeW * 0.1,
		},
	}
}

// EnergyPerCycle returns the joules one cycle of the given class costs.
func (pm PowerModel) EnergyPerCycle(c InstrClass) float64 {
	if c < 0 || c >= numClasses {
		c = ClassALU
	}
	return pm.PowerW[c] / pm.FreqHz
}

// CyclePeriod returns the wall-clock duration of one cycle in seconds.
func (pm PowerModel) CyclePeriod() float64 { return 1 / pm.FreqHz }

// Validate checks the model is physical.
func (pm PowerModel) Validate() error {
	if !(pm.FreqHz > 0) || math.IsInf(pm.FreqHz, 1) {
		return fmt.Errorf("energy: frequency must be finite and > 0, got %g", pm.FreqHz)
	}
	for c, p := range pm.PowerW {
		if !(p >= 0) || math.IsInf(p, 1) {
			return fmt.Errorf("energy: class %v power must be finite and ≥ 0, got %g", InstrClass(c), p)
		}
	}
	return nil
}
