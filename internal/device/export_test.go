package device

// SleepChunks reports how many sleep chunks the batched engine's fused
// sleep settled on its clamped and general paths.
func (d *Device) SleepChunks() (clamped, general uint64) {
	return d.sleep.clamped, d.sleep.general
}

// ClampThreshold is fusedSleep's clampThreshold.
var ClampThreshold = clampThreshold
