package energy

import (
	"fmt"

	"ehmodel/internal/trace"
)

// Harvester converts an ambient voltage trace into charging power using
// a simple resistive transducer model: the source can deliver
// P = η·V_s²/R. This preserves the property the paper relies on —
// charging power tracks the trace shape — without modelling impedance
// matching.
type Harvester struct {
	Source *trace.Trace
	R      float64 // transducer series resistance (Ω), > 0
	Eta    float64 // conversion efficiency in (0, 1]
}

// NewHarvester validates and builds a harvester.
func NewHarvester(src *trace.Trace, r, eta float64) (*Harvester, error) {
	if src == nil {
		return nil, fmt.Errorf("energy: harvester needs a voltage source")
	}
	if r <= 0 {
		return nil, fmt.Errorf("energy: transducer resistance must be > 0, got %g", r)
	}
	if eta <= 0 || eta > 1 {
		return nil, fmt.Errorf("energy: efficiency must be in (0,1], got %g", eta)
	}
	return &Harvester{Source: src, R: r, Eta: eta}, nil
}

// PowerAt returns the harvested power (W) at time ts seconds.
func (h *Harvester) PowerAt(ts float64) float64 {
	return TransducerPower(h.Source.VoltageAt(ts), h.Eta, h.R)
}

// TransducerPower is the transducer law PowerAt applies: a source at v
// volts delivers η·v²/R, and nothing at or below 0 V. It is small
// enough to inline into a loop that looks the supply up at every step.
func TransducerPower(v, eta, r float64) float64 {
	if v <= 0 {
		return 0
	}
	return eta * v * v / r
}

// EnergyOver integrates harvested energy over [t0, t0+dt] with a single
// midpoint sample — adequate for the per-cycle and per-window steps the
// simulator takes, which are far shorter than trace features.
func (h *Harvester) EnergyOver(t0, dt float64) float64 {
	return h.PowerAt(t0+dt/2) * dt
}
