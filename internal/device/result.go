package device

import "ehmodel/internal/stats"

// PeriodStats records where one active period's cycles and energy went —
// the measured counterpart of the EH model's Eq. 1 breakdown.
type PeriodStats struct {
	// SupplyE is the usable capacitor energy at power-on (the model's E).
	SupplyE float64
	// HarvestedE is energy harvested during the active period (ε_C·t).
	HarvestedE float64

	ProgressCycles uint64
	DeadCycles     uint64
	BackupCycles   uint64
	RestoreCycles  uint64
	IdleCycles     uint64

	ProgressE float64
	DeadE     float64
	BackupE   float64
	RestoreE  float64
	IdleE     float64

	Backups int
	// BackupIntervals are executed cycles between consecutive committed
	// backups (τ_B samples).
	BackupIntervals []uint64
	// AppBytes per committed backup (α_B·τ_B samples).
	AppBytes []int
	// PayloadBytes per committed backup (architectural + application).
	PayloadBytes []int
	// ChargeTimeS is wall-clock time spent recharging before this
	// period.
	ChargeTimeS float64
}

// FaultReport counts injected faults and the checkpoint protocol's
// recovery actions across one run. All fields are zero when no fault
// injector was attached.
type FaultReport struct {
	// PowerCuts is the number of scheduled supply faults delivered.
	PowerCuts int
	// InjectedTears counts backups the injector deliberately cut at a
	// chosen word; TornBackups additionally includes backups torn by a
	// supply failure (scheduled or organic) mid-write.
	InjectedTears int
	TornBackups   int
	// BitFlips is the total bits flipped in stored checkpoint words.
	BitFlips int
	// CRCRejections counts checkpoint slots the restore path rejected
	// after CRC validation failed.
	CRCRejections int
	// StaleRestores counts restores that fell back to the older slot;
	// ForcedStale counts the subset demanded by the injector rather
	// than caused by a rejected newest slot.
	StaleRestores int
	ForcedStale   int
	// ColdRestarts counts boots where both slots were unusable and the
	// device restarted from the program image despite having committed
	// checkpoints before.
	ColdRestarts int
}

// Result aggregates a full intermittent run.
type Result struct {
	Strategy  string
	Program   string
	Completed bool // the program halted and its final commit landed
	Periods   []PeriodStats
	// Output is the committed output stream (SysOut values that reached
	// nonvolatile storage).
	Output []uint32
	// TotalCycles counts every consumed cycle across the run.
	TotalCycles uint64
	// TimeS is total simulated wall-clock time including recharging.
	TimeS float64
	// Faults reports injected faults and checkpoint recoveries.
	Faults FaultReport
}

// sum folds a per-period field.
func (r *Result) sum(f func(*PeriodStats) float64) float64 {
	t := 0.0
	for i := range r.Periods {
		t += f(&r.Periods[i])
	}
	return t
}

// MeasuredProgress returns the run's energy-based forward progress: the
// fraction of all supplied energy (capacitor + harvested) spent on
// committed execution. This is the measured p the paper's Figs. 5–7
// plot. For a completed run the final period contributes only the
// energy it actually consumed — the program ended there, so unspent
// charge is not "supply" in the model's sense.
func (r *Result) MeasuredProgress() float64 {
	var supply, prog float64
	for i := range r.Periods {
		p := &r.Periods[i]
		s := p.SupplyE + p.HarvestedE
		if r.Completed && i == len(r.Periods)-1 {
			if used := p.ProgressE + p.DeadE + p.BackupE + p.RestoreE + p.IdleE; used < s {
				s = used
			}
		}
		supply += s
		prog += p.ProgressE
	}
	if supply == 0 {
		return 0
	}
	return prog / supply
}

// MeasuredEpsilon returns the average energy per executed cycle across
// the run — the ε the EH model should be fed for this workload's
// instruction mix.
func (r *Result) MeasuredEpsilon() float64 {
	var e float64
	var c uint64
	for i := range r.Periods {
		p := &r.Periods[i]
		e += p.ProgressE + p.DeadE
		c += p.ProgressCycles + p.DeadCycles
	}
	if c == 0 {
		return 0
	}
	return e / float64(c)
}

// PayloadSamples returns total checkpoint bytes per committed backup.
func (r *Result) PayloadSamples() []float64 {
	n := 0
	for i := range r.Periods {
		n += len(r.Periods[i].PayloadBytes)
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, 0, n)
	for i := range r.Periods {
		for _, v := range r.Periods[i].PayloadBytes {
			out = append(out, float64(v))
		}
	}
	return out
}

// MeanSupply returns the average per-period supply E (failure-terminated
// periods only, which are the full-budget ones).
func (r *Result) MeanSupply() float64 {
	var sum float64
	n := 0
	for i := range r.Periods {
		if r.Completed && i == len(r.Periods)-1 {
			continue
		}
		sum += r.Periods[i].SupplyE + r.Periods[i].HarvestedE
		n++
	}
	if n == 0 {
		if len(r.Periods) == 0 {
			return 0
		}
		// single-period completed run
		return r.Periods[0].SupplyE + r.Periods[0].HarvestedE
	}
	return sum / float64(n)
}

// CycleProgress returns the cycle-based progress fraction: committed
// execution cycles over all active cycles.
func (r *Result) CycleProgress() float64 {
	var active, prog uint64
	for i := range r.Periods {
		p := &r.Periods[i]
		active += p.ProgressCycles + p.DeadCycles + p.BackupCycles + p.RestoreCycles + p.IdleCycles
		prog += p.ProgressCycles
	}
	if active == 0 {
		return 0
	}
	return float64(prog) / float64(active)
}

// TauBSamples collects all backup-interval samples (exec cycles between
// committed backups) across periods.
func (r *Result) TauBSamples() []float64 {
	n := 0
	for i := range r.Periods {
		n += len(r.Periods[i].BackupIntervals)
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, 0, n)
	for i := range r.Periods {
		for _, v := range r.Periods[i].BackupIntervals {
			out = append(out, float64(v))
		}
	}
	return out
}

// TauDSamples collects the dead-cycle count of each period that ended in
// a power failure.
func (r *Result) TauDSamples() []float64 {
	// dead cycles only exist for failure-terminated periods; the final
	// (completed) period records zero dead cycles and is excluded to
	// avoid biasing τ_D downward.
	failed := r.Periods
	if r.Completed && len(failed) > 0 {
		failed = failed[:len(failed)-1]
	}
	if len(failed) == 0 {
		return nil
	}
	out := make([]float64, len(failed))
	for i := range failed {
		out[i] = float64(failed[i].DeadCycles)
	}
	return out
}

// AlphaBSamples returns per-backup application bytes divided by the
// backup interval — instantaneous α_B samples in bytes/cycle.
func (r *Result) AlphaBSamples() []float64 {
	n := 0
	for i := range r.Periods {
		p := &r.Periods[i]
		for j := range p.AppBytes {
			if j < len(p.BackupIntervals) && p.BackupIntervals[j] > 0 {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, 0, n)
	for i := range r.Periods {
		p := &r.Periods[i]
		for j, bytes := range p.AppBytes {
			if j < len(p.BackupIntervals) && p.BackupIntervals[j] > 0 {
				out = append(out, float64(bytes)/float64(p.BackupIntervals[j]))
			}
		}
	}
	return out
}

// MeanTauB returns the mean backup interval, or 0 with no samples.
func (r *Result) MeanTauB() float64 { return stats.Mean(r.TauBSamples()) }

// MeanTauD returns the mean dead cycles per failed period.
func (r *Result) MeanTauD() float64 { return stats.Mean(r.TauDSamples()) }

// Backups returns the total committed backups.
func (r *Result) Backups() int {
	n := 0
	for i := range r.Periods {
		n += r.Periods[i].Backups
	}
	return n
}

// Restores returns the number of periods that began with a checkpoint
// restore (every period after the first, in a completed run).
func (r *Result) Restores() int {
	n := 0
	for i := range r.Periods {
		if r.Periods[i].RestoreCycles > 0 {
			n++
		}
	}
	return n
}

// EnergyBreakdown sums the per-period energy split; handy for reports.
type EnergyBreakdown struct {
	Supply, Harvested, Progress, Dead, Backup, Restore, Idle float64
}

// Breakdown returns the run's total energy split.
func (r *Result) Breakdown() EnergyBreakdown {
	var b EnergyBreakdown
	for i := range r.Periods {
		p := &r.Periods[i]
		b.Supply += p.SupplyE
		b.Harvested += p.HarvestedE
		b.Progress += p.ProgressE
		b.Dead += p.DeadE
		b.Backup += p.BackupE
		b.Restore += p.RestoreE
		b.Idle += p.IdleE
	}
	return b
}
