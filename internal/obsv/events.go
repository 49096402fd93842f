// Package obsv is the simulator's zero-cost observability layer:
// typed lifecycle events emitted by the device engines, the runtime
// strategies and the fault injector, fanned into pluggable sinks —
// a Chrome trace_event JSON writer (chrome://tracing / Perfetto), a
// bounded ring buffer for always-on flight recording (dumped as
// logfmt text), and a loss-free metrics aggregator.
//
// The layer's contract is that disabling it costs a nil check and
// nothing else: an Event is a fixed-size value (no pointers, no
// strings), emission sites fire only at lifecycle granularity (periods,
// checkpoints, batches — never per instruction), and the device's
// disabled path is a single `if obs == nil` guard. The engine benchmark
// guard test (internal/device) pins the disabled path at zero extra
// allocations and within a small ns/op tolerance of the committed
// BENCH_core.json baseline.
package obsv

import "strconv"

// EventType identifies one lifecycle event. The vocabulary is shared
// by both execution engines; events marked engine-diagnostic below are
// the only ones whose presence may differ between the batched and
// reference engines (everything else is emitted at points the
// equivalence oracle proves bit-identical).
type EventType uint8

const (
	// EvNone is the zero value; sinks ignore it.
	EvNone EventType = iota
	// EvRunBegin opens a run. Arg is the resolved engine
	// (0 reference, 1 batched).
	EvRunBegin
	// EvPowerOn begins an active period: the capacitor reached VOn.
	// F is the recharge time in seconds that preceded the period.
	EvPowerOn
	// EvRestore reinstated a committed checkpoint at boot. Arg is the
	// restored payload bytes, Arg2 the slot index, F the restore energy
	// in joules (transfer + surcharge).
	EvRestore
	// EvColdStart booted from the program image: no usable checkpoint.
	EvColdStart
	// EvCheckpointBegin starts a backup. Arg is the payload bytes.
	EvCheckpointBegin
	// EvCheckpointCommit landed a backup's commit record. Arg is the
	// payload bytes, Arg2 the executed cycles since the previous
	// committed backup (a τ_B sample), F the backup energy in joules.
	EvCheckpointCommit
	// EvCheckpointFail is a backup the supply killed before the commit
	// record completed; the previous checkpoint remains live.
	EvCheckpointFail
	// EvBrownOut ends an active period by supply death. Arg is the
	// period's dead (uncommitted) cycles — a τ_D sample — and Arg2 its
	// total active cycles.
	EvBrownOut
	// EvSleep enters the post-backup idle burn (Payload.ThenSleep):
	// the device sleeps until the supply dies.
	EvSleep
	// EvHalt is the program's final commit landing; the run is complete.
	EvHalt
	// EvRunEnd closes a run. Arg is 1 when the program completed.
	EvRunEnd
	// EvDeadline is the wall-clock RunTimeout expiring. Arg is the
	// poll-boundary cycle count also reported in DeadlineError.
	EvDeadline
	// EvBatchHorizon is the batched engine choosing a batch budget
	// (engine-diagnostic: the reference engine never emits it). Arg is
	// the granted budget in cycles, Arg2 the strategy's declared
	// horizon.
	EvBatchHorizon
	// EvTrigger is a strategy requesting a backup. Arg is a
	// TriggerReason; Arg2 is reason-specific detail (the violating
	// word for TrigWAR, the payload bytes for task commits, ...).
	EvTrigger
	// EvWARFlush is an idempotency-tracking runtime (Clank, Ratchet,
	// CacheVolatile) flushing its read/write-first sets. Arg is the
	// combined occupancy at the flush — the buffer high-water metric —
	// and Arg2 a TriggerReason explaining why.
	EvWARFlush
	// EvFaultPowerCut is the injector cutting the supply mid-flight.
	EvFaultPowerCut
	// EvFaultTear is a backup torn mid-write. Arg2 is 1 when the tear
	// was injected deliberately (vs. a supply death).
	EvFaultTear
	// EvFaultBitFlips reports stored checkpoint words corrupted at a
	// restore. Arg is the number of bits flipped.
	EvFaultBitFlips
	// EvCRCReject is the restore path rejecting a checkpoint slot after
	// CRC validation failed. Arg is the slot index.
	EvCRCReject
	// EvStaleRestore is a restore falling back to the older slot.
	// Arg is the slot restored; Arg2 is 1 when the injector forced it.
	EvStaleRestore
	// EvUnrecoverable is the honest fail-stop: the device detected that
	// no crash-consistent recovery exists. Arg is the newest surviving
	// checkpoint sequence, Arg2 the FRAM stores no rollback can undo.
	EvUnrecoverable
	// EvVerdict is the correctness oracle flagging one violation class
	// on a run (internal/faults). Arg is a VerdictClass.
	EvVerdict
	// EvCampaignProbe is the adversarial fault campaign's frontier
	// discovery pass completing. Arg is the number of coverage-frontier
	// windows mined from the probe run, Arg2 the probe's total cycles.
	EvCampaignProbe
	// EvCampaignSchedule is one biased fault schedule being launched.
	// Arg2 is the placed power-cut cycle.
	EvCampaignSchedule
	// EvCampaignFinding is a campaign schedule producing a violation
	// (before shrinking). Arg is the VerdictClass.
	EvCampaignFinding
	// EvCampaignShrink is a counterexample minimized: Arg is the number
	// of candidate runs the shrinker spent, Arg2 the minimized case's
	// final power-cut count.
	EvCampaignShrink
	// EvCampaignCoverage closes a campaign: Arg is the number of
	// frontier windows actually attacked, Arg2 the total discovered —
	// the schedule-space coverage summary.
	EvCampaignCoverage
	// EvTaskCommit is a task-based runtime (Alpaca) atomically
	// committing a task's privatized write set at a task boundary.
	// Arg is the committed payload bytes (the privatization-buffer
	// flush), Arg2 the committing task's entry PC.
	EvTaskCommit
	// EvTaskReexec is a task-based runtime restarting the interrupted
	// task from its last committed boundary after a reboot. Arg is the
	// resumed entry PC.
	EvTaskReexec
	// EvWCECRegion is one static WCEC verifier verdict: Arg is the
	// verdict code (0 certified, 1 livelock, 2 unknown), Arg2 the
	// region's entry PC.
	EvWCECRegion
	// EvFastForward is the batched engine replaying a confirmed fixed
	// point instead of simulating it (engine-diagnostic: the reference
	// engine simulates every period). Arg is the number of periods
	// replayed whole, Arg2 the consumed cycles of each. It follows the
	// replayed periods' own lifecycle events, stamped as if simulated.
	EvFastForward

	// NumEventTypes bounds the vocabulary for sink lookup tables.
	NumEventTypes
)

var eventNames = [NumEventTypes]string{
	EvNone:             "none",
	EvRunBegin:         "run-begin",
	EvPowerOn:          "power-on",
	EvRestore:          "restore",
	EvColdStart:        "cold-start",
	EvCheckpointBegin:  "checkpoint-begin",
	EvCheckpointCommit: "checkpoint-commit",
	EvCheckpointFail:   "checkpoint-fail",
	EvBrownOut:         "brown-out",
	EvSleep:            "sleep",
	EvHalt:             "halt",
	EvRunEnd:           "run-end",
	EvDeadline:         "deadline",
	EvBatchHorizon:     "batch-horizon",
	EvTrigger:          "trigger",
	EvWARFlush:         "war-flush",
	EvFaultPowerCut:    "fault-power-cut",
	EvFaultTear:        "fault-tear",
	EvFaultBitFlips:    "fault-bit-flips",
	EvCRCReject:        "crc-reject",
	EvStaleRestore:     "stale-restore",
	EvUnrecoverable:    "unrecoverable",
	EvVerdict:          "verdict",
	EvCampaignProbe:    "campaign-probe",
	EvCampaignSchedule: "campaign-schedule",
	EvCampaignFinding:  "campaign-finding",
	EvCampaignShrink:   "campaign-shrink",
	EvCampaignCoverage: "campaign-coverage",
	EvTaskCommit:       "task-commit",
	EvTaskReexec:       "task-reexec",
	EvWCECRegion:       "wcec-region",
	EvFastForward:      "fast-forward",
}

func (t EventType) String() string {
	if int(t) < len(eventNames) && eventNames[t] != "" {
		return eventNames[t]
	}
	return "event-" + strconv.FormatUint(uint64(t), 10)
}

// EngineDiagnostic reports whether the event's presence is allowed to
// differ between the batched and reference engines. The golden-trace
// test filters these out before asserting cross-engine equality.
func (t EventType) EngineDiagnostic() bool { return t == EvBatchHorizon || t == EvFastForward }

// VerdictClass classifies a correctness-oracle violation (EvVerdict /
// EvCampaignFinding Arg; internal/faults assigns them). The vocabulary
// follows the formal-foundations taxonomy: equivalence to *some*
// continuous execution, including input-freshness obligations.
type VerdictClass uint8

const (
	// ClassTornState is committed state diverging from every continuous
	// execution: a corrupt restore, a committed output word that is not
	// the oracle's word at that position, or a wrong final memory.
	ClassTornState VerdictClass = iota
	// ClassReplayedInput is a committed input observation that
	// duplicates one an earlier commit already persisted — after a
	// rollback past a commit, the input was re-read and re-committed,
	// so committed state mixes two distinct environment readings.
	ClassReplayedInput
	// ClassStaleOutput is a commit re-exposing output positions an
	// earlier commit already made externally visible — under a live
	// environment the re-emitted words may differ from those already
	// observed.
	ClassStaleOutput
	// ClassTimeliness is a committed input older than the configured
	// freshness bound at the commit that consumed it.
	ClassTimeliness
	// ClassIncomplete is a run that starved before halting — not a
	// divergence, but not equivalent to any continuous execution
	// either.
	ClassIncomplete

	// NumVerdictClasses bounds the enum for metrics arrays.
	NumVerdictClasses
)

var verdictNames = [NumVerdictClasses]string{
	ClassTornState:     "torn-state",
	ClassReplayedInput: "replayed-input",
	ClassStaleOutput:   "stale-output",
	ClassTimeliness:    "timeliness",
	ClassIncomplete:    "incomplete",
}

func (c VerdictClass) String() string {
	if int(c) < len(verdictNames) && verdictNames[c] != "" {
		return verdictNames[c]
	}
	return "class-" + strconv.FormatUint(uint64(c), 10)
}

// TriggerReason classifies why a strategy requested a backup (EvTrigger
// Arg) or flushed its tracking buffers (EvWARFlush Arg2).
type TriggerReason uint64

const (
	// TrigNone is the zero value.
	TrigNone TriggerReason = iota
	// TrigTimer is a fixed-interval watchdog expiring (Timer,
	// Speculative's periodic branch).
	TrigTimer
	// TrigThreshold is a low-voltage comparator firing (Hibernus,
	// Speculative's final backup, threshold NVP, Mementos' site check).
	TrigThreshold
	// TrigSite is a compiler-inserted checkpoint site (Mementos).
	TrigSite
	// TrigTaskEnd is a task-boundary commit (DINO, Chain).
	TrigTaskEnd
	// TrigWAR is a write-after-read idempotency violation (Clank,
	// Ratchet, CacheVolatile).
	TrigWAR
	// TrigBufferFull is a tracking-buffer overflow (Clank).
	TrigBufferFull
	// TrigWatchdog is a region-length cap (Clank, Ratchet,
	// MixedVolatility, CacheVolatile watchdogs).
	TrigWatchdog
	// TrigBoot is a mandatory boot-time checkpoint anchoring
	// re-execution (Clank, Ratchet, CacheVolatile, NVP cold starts).
	TrigBoot
	// TrigEveryCycle is the per-cycle flip-flop flush of every-cycle
	// NVP. Emitted once per power-on, not per cycle — a per-instruction
	// event stream would swamp every sink.
	TrigEveryCycle
	// TrigSense is an input-observation commit: the SenseCommit wrapper
	// checkpointing immediately after a SENSE so the captured input
	// cannot be re-read by a post-reboot replay.
	TrigSense

	// NumTriggerReasons bounds the enum for metrics arrays.
	NumTriggerReasons
)

var triggerNames = [NumTriggerReasons]string{
	TrigNone:       "none",
	TrigTimer:      "timer",
	TrigThreshold:  "threshold",
	TrigSite:       "site",
	TrigTaskEnd:    "task-end",
	TrigWAR:        "war",
	TrigBufferFull: "buffer-full",
	TrigWatchdog:   "watchdog",
	TrigBoot:       "boot",
	TrigEveryCycle: "every-cycle",
	TrigSense:      "sense",
}

func (r TriggerReason) String() string {
	if int(r) < len(triggerNames) && triggerNames[r] != "" {
		return triggerNames[r]
	}
	return "reason-" + strconv.FormatUint(uint64(r), 10)
}

// Event is one observability record. It is a fixed-size value with no
// pointers so emission never allocates and the ring buffer can store
// it verbatim; sinks that need run identity (program, strategy, engine
// flag) receive it at construction, not per event.
type Event struct {
	// Type is the vocabulary entry; Arg/Arg2/F are its typed payload
	// (see the EventType docs).
	Type EventType
	// Tid distinguishes concurrent devices sharing one sink (the
	// Chrome sink maps it to a trace thread); a device's own emissions
	// leave it zero and a wrapping tracer assigns it.
	Tid int32
	// Period is the index of the active period the event belongs to
	// (the period being set up, for charge-phase events).
	Period int32
	// Cycles is the device's consumed-cycle position.
	Cycles uint64
	// TimeS is the simulated wall-clock position in seconds.
	TimeS float64
	// Arg and Arg2 are event-specific integers.
	Arg, Arg2 uint64
	// F is an event-specific float (energy in joules, seconds, ...).
	F float64
}
