package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// Histogram is a loss-free mergeable log2-bucket histogram over
// uint64 samples. Bucket i holds samples whose value has bit length i
// (bucket 0 is the value 0), so merging two histograms is exact bucket
// addition — no rebinning, no sample loss across sweep workers.
type Histogram struct {
	Buckets [65]uint64 `json:"buckets"`
	Count   uint64     `json:"count"`
	Sum     uint64     `json:"sum"`
	Min     uint64     `json:"min"`
	Max     uint64     `json:"max"`
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.Buckets[bits.Len64(v)]++
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
}

// Merge folds other into h, exactly.
func (h *Histogram) Merge(other *Histogram) {
	if other.Count == 0 {
		return
	}
	if h.Count == 0 || other.Min < h.Min {
		h.Min = other.Min
	}
	if other.Max > h.Max {
		h.Max = other.Max
	}
	h.Count += other.Count
	h.Sum += other.Sum
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// Mean returns the exact sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// top of the bucket holding the q·Count-th sample, clamped to Max.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.Buckets {
		seen += c
		if seen >= rank {
			if i == 0 {
				return 0
			}
			top := uint64(1)<<uint(i) - 1
			if top > h.Max {
				top = h.Max
			}
			return top
		}
	}
	return h.Max
}

// FloatStat is a mergeable summary of float64 samples (energies,
// charge times) — count/sum/min/max without bucketing.
type FloatStat struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Observe records one sample.
func (s *FloatStat) Observe(v float64) {
	if s.Count == 0 || v < s.Min {
		s.Min = v
	}
	if s.Count == 0 || v > s.Max {
		s.Max = v
	}
	s.Count++
	s.Sum += v
}

// Merge folds other into s.
func (s *FloatStat) Merge(other *FloatStat) {
	if other.Count == 0 {
		return
	}
	if s.Count == 0 || other.Min < s.Min {
		s.Min = other.Min
	}
	if s.Count == 0 || other.Max > s.Max {
		s.Max = other.Max
	}
	s.Count += other.Count
	s.Sum += other.Sum
}

// Mean returns the sample mean (0 when empty).
func (s *FloatStat) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Metrics derives per-run counters and histograms from the event
// stream. It implements Tracer; give each device (or sweep worker) its
// own Metrics via a Collector and merge at export time — merging is
// loss-free, so aggregation order does not matter.
type Metrics struct {
	Runs          uint64 `json:"runs"`
	CompletedRuns uint64 `json:"completed_runs"`

	Periods    uint64 `json:"periods"` // power-on count
	BrownOuts  uint64 `json:"brown_outs"`
	Sleeps     uint64 `json:"sleeps"`
	Halts      uint64 `json:"halts"`
	Deadlines  uint64 `json:"deadlines"`
	Backups    uint64 `json:"backups"` // committed checkpoints
	BackupFail uint64 `json:"backup_fails"`
	Restores   uint64 `json:"restores"`
	ColdStarts uint64 `json:"cold_starts"`

	// τ_B / τ_D breakdown: committed cycles are the sum of exec-cycle
	// spans behind committed backups; dead cycles are the re-executed
	// work lost to brown-outs.
	CommittedCycles uint64 `json:"committed_cycles"`
	DeadCycles      uint64 `json:"dead_cycles"`

	OnCycles    Histogram `json:"on_cycles_per_period"`
	TauD        Histogram `json:"dead_cycles_per_period"`
	TauB        Histogram `json:"exec_cycles_per_backup"`
	CkptBytes   Histogram `json:"checkpoint_bytes"`
	ChargeS     FloatStat `json:"charge_seconds"`
	CkptEnergy  FloatStat `json:"checkpoint_energy_j"`
	RestoreErgy FloatStat `json:"restore_energy_j"`

	Triggers        [NumTriggerReasons]uint64 `json:"-"`
	WARFlushes      uint64                    `json:"war_flushes"`
	BufferHighWater uint64                    `json:"buffer_high_water"`

	FaultPowerCuts  uint64 `json:"fault_power_cuts"`
	FaultTears      uint64 `json:"fault_tears"`
	FaultBitFlips   uint64 `json:"fault_bit_flips"`
	CRCRejects      uint64 `json:"crc_rejects"`
	StaleRestores   uint64 `json:"stale_restores"`
	Unrecoverables  uint64 `json:"unrecoverables"`
	BatchedHorizons uint64 `json:"batched_horizons"`
	// BatchBudget is the distribution of the batched engine's batch
	// budgets in cycles (EvBatchHorizon's Arg): how far apart the events
	// that bound each batch sit, e.g. Hibernus's 16-cycle comparator
	// windows next to a timer's 16k-cycle capped stretches.
	BatchBudget Histogram `json:"batch_budget_cycles"`
	// FastForwardPeriods counts the active periods the batched engine
	// replayed from a confirmed fixed point instead of simulating them
	// (EvFastForward's Arg); the replayed periods still count in Periods.
	FastForwardPeriods uint64 `json:"fastforward_periods"`

	// Verdicts counts correctness-oracle violations by class (EvVerdict
	// and EvCampaignFinding both land here, so sweep and campaign
	// findings share one export).
	Verdicts [NumVerdictClasses]uint64 `json:"-"`

	// Adversarial fault-campaign statistics (internal/faults.Campaign):
	// schedules launched, frontier windows discovered/attacked (the
	// schedule-space coverage pair), findings before shrinking, and the
	// shrinker's cost and result-size distributions.
	CampaignSchedules uint64    `json:"campaign_schedules"`
	CampaignFrontier  uint64    `json:"campaign_frontier_windows"`
	CampaignAttacked  uint64    `json:"campaign_attacked_windows"`
	CampaignFindings  uint64    `json:"campaign_findings"`
	ShrinkRuns        Histogram `json:"campaign_shrink_runs"`
	CaseCuts          Histogram `json:"campaign_case_cuts"`

	// Task-runtime statistics (strategy.Alpaca): atomic task commits,
	// post-reboot task re-executions, and the privatization-buffer
	// bytes flushed per commit.
	TasksCommitted   uint64    `json:"tasks_committed"`
	TaskReexecutions uint64    `json:"task_reexecutions"`
	TaskPrivBytes    Histogram `json:"task_priv_bytes"`

	// Static WCEC verifier results (internal/analyze.WCEC, surfaced via
	// EvWCECRegion): per-region certificate/livelock/unknown verdict
	// counts for the configurations a driver preflighted.
	WCECCertified uint64 `json:"wcec_certified"`
	WCECLivelock  uint64 `json:"wcec_livelock"`
	WCECUnknown   uint64 `json:"wcec_unknown"`

	// Result-store accounting (internal/sweep): cells answered from the
	// store, cells simulated and stored, cells run uncached (unhashable
	// configuration, caching off), identical in-flight cells collapsed by
	// singleflight, and failed store writes. Populated by AddCache.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	CacheBypass uint64 `json:"cache_bypass"`
	CacheDedup  uint64 `json:"cache_dedup"`
	CacheErrors uint64 `json:"cache_errors"`

	// Request accounting (cmd/ehserve, and any front end that serves
	// queries): request count, failed requests, and a log2 latency
	// histogram in microseconds. Populated by ObserveRequest.
	Requests      uint64    `json:"requests"`
	RequestErrors uint64    `json:"request_errors"`
	RequestUS     Histogram `json:"request_latency_us"`

	// ErrorClasses carries the sweep runner's per-class failure counts
	// (AddErrorClass); nil until the first class is added.
	ErrorClasses map[string]uint64 `json:"error_classes,omitempty"`
}

// AddCache folds result-store counters into the export.
func (m *Metrics) AddCache(hits, misses, bypass, dedup, errors uint64) {
	m.CacheHits += hits
	m.CacheMisses += misses
	m.CacheBypass += bypass
	m.CacheDedup += dedup
	m.CacheErrors += errors
}

// ObserveRequest records one served request: its latency in
// microseconds (negative durations clamp to zero) and whether it failed.
func (m *Metrics) ObserveRequest(us int64, failed bool) {
	if us < 0 {
		us = 0
	}
	m.Requests++
	if failed {
		m.RequestErrors++
	}
	m.RequestUS.Observe(uint64(us))
}

// Event implements Tracer.
func (m *Metrics) Event(e Event) {
	switch e.Type {
	case EvRunBegin:
		m.Runs++
	case EvRunEnd:
		if e.Arg == 1 {
			m.CompletedRuns++
		}
	case EvPowerOn:
		m.Periods++
		m.ChargeS.Observe(e.F)
	case EvRestore:
		m.Restores++
		m.RestoreErgy.Observe(e.F)
	case EvColdStart:
		m.ColdStarts++
	case EvCheckpointCommit:
		m.Backups++
		m.CommittedCycles += e.Arg2
		m.TauB.Observe(e.Arg2)
		m.CkptBytes.Observe(e.Arg)
		m.CkptEnergy.Observe(e.F)
	case EvCheckpointFail:
		m.BackupFail++
	case EvBrownOut:
		m.BrownOuts++
		m.DeadCycles += e.Arg
		m.TauD.Observe(e.Arg)
		m.OnCycles.Observe(e.Arg2)
	case EvSleep:
		m.Sleeps++
	case EvHalt:
		m.Halts++
	case EvDeadline:
		m.Deadlines++
	case EvBatchHorizon:
		m.BatchedHorizons++
		m.BatchBudget.Observe(e.Arg)
	case EvFastForward:
		m.FastForwardPeriods += e.Arg
	case EvTrigger:
		if e.Arg < uint64(NumTriggerReasons) {
			m.Triggers[e.Arg]++
		}
	case EvWARFlush:
		m.WARFlushes++
		if e.Arg > m.BufferHighWater {
			m.BufferHighWater = e.Arg
		}
	case EvFaultPowerCut:
		m.FaultPowerCuts++
	case EvFaultTear:
		m.FaultTears++
	case EvFaultBitFlips:
		m.FaultBitFlips += e.Arg
	case EvCRCReject:
		m.CRCRejects++
	case EvStaleRestore:
		m.StaleRestores++
	case EvUnrecoverable:
		m.Unrecoverables++
	case EvVerdict:
		if e.Arg < uint64(NumVerdictClasses) {
			m.Verdicts[e.Arg]++
		}
	case EvCampaignProbe:
		m.CampaignFrontier += e.Arg
	case EvCampaignSchedule:
		m.CampaignSchedules++
	case EvCampaignFinding:
		m.CampaignFindings++
		if e.Arg < uint64(NumVerdictClasses) {
			m.Verdicts[e.Arg]++
		}
	case EvCampaignShrink:
		m.ShrinkRuns.Observe(e.Arg)
		m.CaseCuts.Observe(e.Arg2)
	case EvCampaignCoverage:
		m.CampaignAttacked += e.Arg
	case EvTaskCommit:
		m.TasksCommitted++
		m.TaskPrivBytes.Observe(e.Arg)
	case EvTaskReexec:
		m.TaskReexecutions++
	case EvWCECRegion:
		switch e.Arg {
		case WCECArgCertified:
			m.WCECCertified++
		case WCECArgLivelock:
			m.WCECLivelock++
		default:
			m.WCECUnknown++
		}
	}
}

// EvWCECRegion Arg codes: the static verifier's per-region verdict.
const (
	WCECArgCertified uint64 = 0
	WCECArgLivelock  uint64 = 1
	WCECArgUnknown   uint64 = 2
)

// AddErrorClass records a sweep-runner failure class count (the
// runner.Errors summary) into the export.
func (m *Metrics) AddErrorClass(class string, n uint64) {
	if n == 0 {
		return
	}
	if m.ErrorClasses == nil {
		m.ErrorClasses = map[string]uint64{}
	}
	m.ErrorClasses[class] += n
}

// Merge folds other into m, loss-free.
func (m *Metrics) Merge(other *Metrics) {
	m.Runs += other.Runs
	m.CompletedRuns += other.CompletedRuns
	m.Periods += other.Periods
	m.BrownOuts += other.BrownOuts
	m.Sleeps += other.Sleeps
	m.Halts += other.Halts
	m.Deadlines += other.Deadlines
	m.Backups += other.Backups
	m.BackupFail += other.BackupFail
	m.Restores += other.Restores
	m.ColdStarts += other.ColdStarts
	m.CommittedCycles += other.CommittedCycles
	m.DeadCycles += other.DeadCycles
	m.OnCycles.Merge(&other.OnCycles)
	m.TauD.Merge(&other.TauD)
	m.TauB.Merge(&other.TauB)
	m.CkptBytes.Merge(&other.CkptBytes)
	m.ChargeS.Merge(&other.ChargeS)
	m.CkptEnergy.Merge(&other.CkptEnergy)
	m.RestoreErgy.Merge(&other.RestoreErgy)
	for i := range m.Triggers {
		m.Triggers[i] += other.Triggers[i]
	}
	m.WARFlushes += other.WARFlushes
	if other.BufferHighWater > m.BufferHighWater {
		m.BufferHighWater = other.BufferHighWater
	}
	m.FaultPowerCuts += other.FaultPowerCuts
	m.FaultTears += other.FaultTears
	m.FaultBitFlips += other.FaultBitFlips
	m.CRCRejects += other.CRCRejects
	m.StaleRestores += other.StaleRestores
	m.Unrecoverables += other.Unrecoverables
	m.BatchedHorizons += other.BatchedHorizons
	m.BatchBudget.Merge(&other.BatchBudget)
	m.FastForwardPeriods += other.FastForwardPeriods
	for i := range m.Verdicts {
		m.Verdicts[i] += other.Verdicts[i]
	}
	m.CampaignSchedules += other.CampaignSchedules
	m.CampaignFrontier += other.CampaignFrontier
	m.CampaignAttacked += other.CampaignAttacked
	m.CampaignFindings += other.CampaignFindings
	m.ShrinkRuns.Merge(&other.ShrinkRuns)
	m.CaseCuts.Merge(&other.CaseCuts)
	m.TasksCommitted += other.TasksCommitted
	m.TaskReexecutions += other.TaskReexecutions
	m.TaskPrivBytes.Merge(&other.TaskPrivBytes)
	m.WCECCertified += other.WCECCertified
	m.WCECLivelock += other.WCECLivelock
	m.WCECUnknown += other.WCECUnknown
	m.CacheHits += other.CacheHits
	m.CacheMisses += other.CacheMisses
	m.CacheBypass += other.CacheBypass
	m.CacheDedup += other.CacheDedup
	m.CacheErrors += other.CacheErrors
	m.Requests += other.Requests
	m.RequestErrors += other.RequestErrors
	m.RequestUS.Merge(&other.RequestUS)
	for k, v := range other.ErrorClasses {
		m.AddErrorClass(k, v)
	}
}

// rows flattens the metrics into ordered name/value pairs for CSV.
func (m *Metrics) rows() [][2]string {
	f := func(v float64) string { return fmt.Sprintf("%g", v) }
	u := func(v uint64) string { return itoa(v) }
	out := [][2]string{
		{"runs", u(m.Runs)},
		{"completed_runs", u(m.CompletedRuns)},
		{"periods", u(m.Periods)},
		{"brown_outs", u(m.BrownOuts)},
		{"sleeps", u(m.Sleeps)},
		{"halts", u(m.Halts)},
		{"deadlines", u(m.Deadlines)},
		{"backups", u(m.Backups)},
		{"backup_fails", u(m.BackupFail)},
		{"restores", u(m.Restores)},
		{"cold_starts", u(m.ColdStarts)},
		{"committed_cycles", u(m.CommittedCycles)},
		{"dead_cycles", u(m.DeadCycles)},
		{"war_flushes", u(m.WARFlushes)},
		{"buffer_high_water", u(m.BufferHighWater)},
		{"fault_power_cuts", u(m.FaultPowerCuts)},
		{"fault_tears", u(m.FaultTears)},
		{"fault_bit_flips", u(m.FaultBitFlips)},
		{"crc_rejects", u(m.CRCRejects)},
		{"stale_restores", u(m.StaleRestores)},
		{"unrecoverables", u(m.Unrecoverables)},
		{"batched_horizons", u(m.BatchedHorizons)},
		{"fastforward_periods", u(m.FastForwardPeriods)},
	}
	hist := func(name string, h *Histogram) {
		out = append(out,
			[2]string{name + "_count", u(h.Count)},
			[2]string{name + "_mean", f(h.Mean())},
			[2]string{name + "_min", u(h.Min)},
			[2]string{name + "_p50", u(h.Quantile(0.50))},
			[2]string{name + "_p99", u(h.Quantile(0.99))},
			[2]string{name + "_max", u(h.Max)},
		)
	}
	hist("on_cycles_per_period", &m.OnCycles)
	hist("dead_cycles_per_period", &m.TauD)
	hist("exec_cycles_per_backup", &m.TauB)
	hist("checkpoint_bytes", &m.CkptBytes)
	hist("batch_budget_cycles", &m.BatchBudget)
	stat := func(name string, s *FloatStat) {
		out = append(out,
			[2]string{name + "_count", u(s.Count)},
			[2]string{name + "_mean", f(s.Mean())},
			[2]string{name + "_min", f(s.Min)},
			[2]string{name + "_max", f(s.Max)},
		)
	}
	stat("charge_seconds", &m.ChargeS)
	stat("checkpoint_energy_j", &m.CkptEnergy)
	stat("restore_energy_j", &m.RestoreErgy)
	out = append(out,
		[2]string{"campaign_schedules", u(m.CampaignSchedules)},
		[2]string{"campaign_frontier_windows", u(m.CampaignFrontier)},
		[2]string{"campaign_attacked_windows", u(m.CampaignAttacked)},
		[2]string{"campaign_findings", u(m.CampaignFindings)},
	)
	hist("campaign_shrink_runs", &m.ShrinkRuns)
	hist("campaign_case_cuts", &m.CaseCuts)
	out = append(out,
		[2]string{"tasks_committed", u(m.TasksCommitted)},
		[2]string{"task_reexecutions", u(m.TaskReexecutions)},
	)
	hist("task_priv_bytes", &m.TaskPrivBytes)
	// WCEC rows appear only when a verifier actually ran, so exports
	// from drivers without the preflight keep their exact prior shape.
	if m.WCECCertified+m.WCECLivelock+m.WCECUnknown > 0 {
		out = append(out,
			[2]string{"wcec_certified", u(m.WCECCertified)},
			[2]string{"wcec_livelock", u(m.WCECLivelock)},
			[2]string{"wcec_unknown", u(m.WCECUnknown)},
		)
	}
	// Cache and request rows appear only when a result store / request
	// front end actually ran, so exports from plain sweeps keep their
	// exact prior shape (same conditional idiom as the WCEC rows above).
	if m.CacheHits+m.CacheMisses+m.CacheBypass+m.CacheDedup+m.CacheErrors > 0 {
		out = append(out,
			[2]string{"cache_hits", u(m.CacheHits)},
			[2]string{"cache_misses", u(m.CacheMisses)},
			[2]string{"cache_bypass", u(m.CacheBypass)},
			[2]string{"cache_dedup", u(m.CacheDedup)},
			[2]string{"cache_errors", u(m.CacheErrors)},
		)
	}
	if m.Requests > 0 {
		out = append(out,
			[2]string{"requests", u(m.Requests)},
			[2]string{"request_errors", u(m.RequestErrors)},
		)
		hist("request_latency_us", &m.RequestUS)
	}
	for c := VerdictClass(0); c < NumVerdictClasses; c++ {
		if m.Verdicts[c] != 0 {
			out = append(out, [2]string{"verdict_" + c.String(), u(m.Verdicts[c])})
		}
	}
	for r := TriggerReason(0); r < NumTriggerReasons; r++ {
		if m.Triggers[r] != 0 {
			out = append(out, [2]string{"trigger_" + r.String(), u(m.Triggers[r])})
		}
	}
	classes := make([]string, 0, len(m.ErrorClasses))
	for k := range m.ErrorClasses {
		classes = append(classes, k)
	}
	sort.Strings(classes)
	for _, k := range classes {
		out = append(out, [2]string{"error_" + k, u(m.ErrorClasses[k])})
	}
	return out
}

// WriteCSV exports the metrics as `name,value` rows with a header.
func (m *Metrics) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "metric,value\n"); err != nil {
		return err
	}
	for _, row := range m.rows() {
		if _, err := fmt.Fprintf(w, "%s,%s\n", row[0], row[1]); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON exports the metrics as an indented JSON document, with
// trigger counts keyed by reason name.
func (m *Metrics) WriteJSON(w io.Writer) error {
	type alias Metrics // avoid recursing into MarshalJSON
	doc := struct {
		*alias
		Triggers map[string]uint64 `json:"triggers,omitempty"`
		Verdicts map[string]uint64 `json:"verdicts,omitempty"`
	}{alias: (*alias)(m)}
	for r := TriggerReason(0); r < NumTriggerReasons; r++ {
		if m.Triggers[r] != 0 {
			if doc.Triggers == nil {
				doc.Triggers = map[string]uint64{}
			}
			doc.Triggers[r.String()] = m.Triggers[r]
		}
	}
	for c := VerdictClass(0); c < NumVerdictClasses; c++ {
		if m.Verdicts[c] != 0 {
			if doc.Verdicts == nil {
				doc.Verdicts = map[string]uint64{}
			}
			doc.Verdicts[c.String()] = m.Verdicts[c]
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}

// Collector hands out per-worker Metrics sinks and aggregates them
// loss-free at export time. Each Tracer() result is single-goroutine
// (the worker's own device feeds it); only registration and Aggregate
// take the lock, so the hot path never contends.
type Collector struct {
	mu    sync.Mutex
	parts []*Metrics
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// Tracer registers and returns a fresh per-worker Metrics sink.
func (c *Collector) Tracer() *Metrics {
	m := &Metrics{}
	c.mu.Lock()
	c.parts = append(c.parts, m)
	c.mu.Unlock()
	return m
}

// Aggregate merges every registered sink into one Metrics. Call it
// after the sweep's workers have finished.
func (c *Collector) Aggregate() *Metrics {
	out := &Metrics{}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.parts {
		out.Merge(p)
	}
	return out
}
