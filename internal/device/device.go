// Package device simulates a complete intermittent computing platform:
// an EH32 core, SRAM/FRAM memory, a storage capacitor charged by an
// ambient harvester, and a pluggable backup/restore runtime strategy.
//
// The simulator's accounting mirrors the EH model's taxonomy exactly.
// Every active period's cycles and energy are split into forward
// progress, backups, restores, dead (uncommitted) execution and idle
// time, so measured results can be compared against the model's
// predictions parameter-for-parameter (the validation of §V).
package device

import (
	"fmt"
	"math"
	"time"

	"ehmodel/internal/asm"
	"ehmodel/internal/cpu"
	"ehmodel/internal/energy"
	"ehmodel/internal/isa"
	"ehmodel/internal/mem"
	"ehmodel/internal/obsv"
)

// AccessPreview describes the memory access the next instruction will
// make, computed before it executes so strategies like Clank can
// checkpoint ahead of idempotency-violating stores.
type AccessPreview struct {
	Valid bool
	Addr  uint32
	Size  uint8
	Store bool
}

// Payload describes what a backup (or the restore that mirrors it)
// saves.
type Payload struct {
	// ArchBytes is fixed architectural state: registers, PC, etc.
	ArchBytes int
	// AppBytes is application state accumulated since the last backup
	// (dirty data, SRAM snapshot, store-queue contents).
	AppBytes int
	// SaveSRAM snapshots volatile data memory contents so the restore
	// can reinstate them (full-memory checkpoint systems).
	SaveSRAM bool
	// ThenSleep puts the device into idle until the supply dies after
	// the backup commits — single-backup behaviour (Hibernus).
	ThenSleep bool
	// FlushCache marks the mixed-volatility cache clean when the
	// checkpoint commits: its dirty blocks are the AppBytes this backup
	// wrote to FRAM.
	FlushCache bool
}

// Bytes is the total checkpoint size.
func (p Payload) Bytes() int { return p.ArchBytes + p.AppBytes }

// Strategy is a backup/restore runtime policy. The device consults it
// around every instruction; the strategy requests backups by returning a
// non-nil Payload.
type Strategy interface {
	// Name identifies the strategy in results and logs.
	Name() string
	// Attach is called once before the run with the fully constructed
	// device, letting the strategy derive thresholds from its config.
	Attach(d *Device)
	// Boot is called at every power-on after state has been restored
	// (or cold-started). Strategies may request an immediate backup by
	// returning a payload (e.g. Clank checkpoints at boot).
	Boot(d *Device) *Payload
	// PreStep may request a backup before the given instruction
	// executes; acc previews its memory access.
	PreStep(d *Device, in isa.Instr, acc AccessPreview) *Payload
	// PostStep observes the executed instruction and may request a
	// backup after it (checkpoint sites, task ends, timers).
	PostStep(d *Device, st cpu.Step) *Payload
	// FinalPayload is the backup taken when the program halts, which
	// commits the remaining output.
	FinalPayload(d *Device) Payload
	// Horizon is the batched engine's planning hint: the strategy
	// promises that, starting from the current device state, it will not
	// request a backup for at least the returned number of executed
	// cycles — except at a SYS code it declared via SysObserver, where
	// the engine ends the batch and calls PostStep anyway. Returning
	// HorizonInfinite means "never on a cycle count" (site- or
	// SYS-driven strategies); returning 1 (or 0) opts out of batching
	// and keeps the exact per-step PreStep/PostStep protocol. Any
	// larger horizon is batched, however short.
	//
	// The contract a Horizon > 1 buys into:
	//   - PreStep must return nil for every instruction in the window
	//     (the engine does not call it inside a batch) — unless the
	//     strategy implements PreStepFilter, whose AdmitStep the engine
	//     calls instead before every batched instruction, ending the
	//     batch just before one whose PreStep would fire;
	//   - PostStep is called once per batch with a synthesized Step
	//     whose Cycles is the whole batch's total and whose HasSys/Sys
	//     describe only the final instruction, so PostStep may read
	//     Cycles only as an amount to accumulate, never as "one
	//     instruction" — and must fire exactly when the per-step engine
	//     would (the engine ends a batch precisely at the horizon, so a
	//     cycle-counted trigger crosses on the same instruction);
	//   - PostStep is not called for a batch that ends in a halt (the
	//     per-step engine never calls it on the halt instruction
	//     either), so all volatile strategy state must be rebuilt by
	//     Boot/Reset rather than carried across a halt attempt.
	Horizon(d *Device) uint64
	// ReplaySafe reports whether the runtime guarantees that re-executing
	// from its last committed checkpoint stays crash-consistent even when
	// stores to nonvolatile data happened since — via idempotency
	// tracking (Clank, Ratchet) or a one-instruction replay window
	// (every-cycle NVP). Just-in-time runtimes that rely on a voltage
	// warning before death (threshold NVP) must return false: an unwarned
	// failure after uncheckpointed FRAM stores leaves no consistent state
	// to recover, and the restore path fail-stops with ErrUnrecoverable
	// instead of silently replaying. Runtimes that keep all mutable data
	// in checkpointed SRAM are unaffected either way.
	ReplaySafe() bool
	// Reset is called on power failure: all volatile tracking state
	// (buffers, timers) is lost.
	Reset()
}

// HorizonInfinite is the Strategy.Horizon result meaning "no
// cycle-counted backup trigger exists": the strategy only ever fires at
// declared SYS sites or in a filtered PreStep, or is disarmed.
const HorizonInfinite = ^uint64(0)

// PreStepFilter is the optional companion to Strategy.Horizon for a
// runtime whose PreStep watches every access but fires only on a rare
// event (a write-after-read, a full tracking buffer, a task boundary
// past the coalescing threshold): it lets the batched engine run the
// non-firing PreStep inside a batch. Before every instruction of a
// batch the engine calls AdmitStep with the PC and access preview
// PreStep would see and the ExecSinceBackup it would read:
//   - AdmitStep returns true after making exactly the state changes
//     PreStep would make when it returns nil;
//   - it returns false, changing nothing, exactly when PreStep would
//     return a payload, and the engine ends the batch before that
//     instruction, which then runs the per-step protocol — its real
//     PreStep fires;
//   - it reads only its arguments and the strategy's own state: no
//     device calls, no events.
//
// An implementer writes PreStep as "AdmitStep, else the firing path",
// so the two cannot drift apart. A wrapper must implement the interface
// exactly when the strategy it wraps does: forwarding Horizon alone
// would batch straight through a firing PreStep.
type PreStepFilter interface {
	AdmitStep(pc uint32, acc AccessPreview, execSinceBackup uint64) bool
}

// InputProtector is optional Strategy metadata: a runtime that claims
// its protocol keeps committed input observations replay-safe (no
// committed SENSE observation duplicates one an earlier commit already
// persisted) implements it and returns true. The correctness oracle
// (internal/faults) cross-checks the claim — a claimed-protected
// runtime caught committing a replayed input is flagged with the claim
// noted, so broken metadata cannot hide a violation.
type InputProtector interface {
	InputsProtected() bool
}

// NaiveCommitter is optional Strategy metadata: a deliberately broken
// runtime variant (the auditor's known-bad target) declares that its
// commit protocol is the naive single-slot, unvalidated commit by
// returning true. Under fault injection the device then downgrades the
// checkpoint machinery exactly as the injector's own NaiveCommit mode
// does; without an injector attached behaviour is unchanged, so the
// broken variant stays bit-identical to its honest twin on clean power.
type NaiveCommitter interface {
	NaiveCommit() bool
}

// CacheSizer is optional Strategy metadata: a strategy whose memory
// model requires the mixed-volatility cache (CacheVolatile) declares
// the block size it needs. When the Config does not configure a cache,
// device.New applies the strategy's block size with the default
// geometry, so catalog-driven harnesses (audit, campaign, integration
// matrices) exercise cache-dependent runtimes without per-strategy
// Config plumbing.
type CacheSizer interface {
	CacheBlockSize() int
}

// CacheKeyer is optional Strategy metadata for the memoization layer
// (internal/sweep): a strategy that can describe every parameter
// affecting its behaviour as a stable string implements it, making its
// runs content-addressable in the result store. The returned key must
// read the live field values (drivers mutate parameters after
// construction) and must cover everything that could change a Result —
// two strategy instances with equal Name() and equal CacheKey() must
// produce bit-identical simulations. Returning "" opts this instance
// out (e.g. a wrapper holding run-specific state the driver reads back),
// and its cells bypass the store. Strategies without the interface
// bypass too.
type CacheKeyer interface {
	CacheKey() string
}

// RegionScheme says how a runtime delimits its atomic regions — the
// intervals between commit points whose worst-case energy the static
// WCEC verifier (internal/analyze) bounds. A verifier verdict is only
// meaningful for a runtime whose regions match the verdict's mode, so
// preflights key their refusals on this introspection.
type RegionScheme int

const (
	// RegionDynamic: commit points are chosen at runtime (voltage
	// thresholds, watchdogs, idempotency tracking) and do not correspond
	// to any static region table. Static checkpoint-mode verdicts are
	// advisory at best for these runtimes.
	RegionDynamic RegionScheme = iota
	// RegionCheckpointSites: commits happen only at the program's
	// checkpoint-site SYS instructions (analyze.DefaultBoundaries) — the
	// WCEC verifier's checkpoint mode.
	RegionCheckpointSites
	// RegionTaskBoundaries: commits happen only at the static task
	// boundaries of analyze.Tasks — the WCEC verifier's task mode.
	RegionTaskBoundaries
)

func (s RegionScheme) String() string {
	switch s {
	case RegionDynamic:
		return "dynamic"
	case RegionCheckpointSites:
		return "checkpoint-sites"
	case RegionTaskBoundaries:
		return "task-boundaries"
	}
	return fmt.Sprintf("RegionScheme(%d)", int(s))
}

// RegionObserver is optional Strategy metadata: a runtime whose commit
// points coincide with a static region scheme declares it, which lets
// the WCEC preflight (ehsim -wcec-check) refuse statically-infeasible
// configurations before simulating them. Strategies without it are
// treated as RegionDynamic.
type RegionObserver interface {
	Regions() RegionScheme
}

// SysObserver is the optional companion to Strategy.Horizon: a strategy
// whose PostStep reacts to specific SYS codes (checkpoint sites, task
// boundaries) declares them so the batched engine ends a batch — and
// delivers a PostStep — exactly there. A strategy whose PostStep reads
// no SYS code (a watchdog) declares 0. Strategies with Horizon > 1 that
// do not implement SysObserver are conservatively treated as observing
// every SYS code, which keeps them correct at the price of a batch
// boundary per SYS instruction.
type SysObserver interface {
	ObservedSys() isa.SysMask
}

// Memoryless is optional Strategy metadata for the fixed-point
// fast-forward (fastforward.go). A strategy returns true when Reset
// followed by Boot rebuilds all of its state from its parameters, so
// skipping one active period's hook calls is unobservable: nothing it
// keeps — no counter, log or reading — outlives a period that commits
// nothing. On a fixed supply such a period then repeats bit for bit,
// which lets the batched engine replay it instead of simulating it
// again. Wrappers that accumulate readings across periods (RegionMeter)
// and runtimes whose run-wide counters a failed backup still bumps
// (Clank, Ratchet) leave the interface out. A strategy without it, or
// returning false, is never fast-forwarded; Config.DetectLivelock
// diagnoses its fixed points all the same.
type Memoryless interface {
	Memoryless() bool
}

// Engine selects the active-phase execution loop. The zero value is
// the batched engine; a CLI picks the reference engine for a whole run
// through the context's Env (env.go).
type Engine int

const (
	// EngineBatched runs the event-horizon engine: instructions execute
	// in batches bounded by the next event (power death, strategy
	// trigger, scheduled fault, poll chunk), and one fused loop settles
	// the per-step energy sequence bit for bit as it interprets — the
	// same loop for bench, harvested, fault-injected and recorded runs.
	// Cache configs fall back to the reference loop.
	EngineBatched Engine = iota
	// EngineReference runs the original per-instruction loop. Results
	// are byte-identical to EngineBatched (the equivalence oracle test
	// proves it); keep it as the trust anchor and for A/B timing.
	EngineReference
)

func (e Engine) String() string {
	switch e {
	case EngineBatched:
		return "batched"
	case EngineReference:
		return "reference"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine maps a CLI flag value to an Engine; empty means batched.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "batched":
		return EngineBatched, nil
	case "reference":
		return EngineReference, nil
	}
	return EngineBatched, fmt.Errorf("device: unknown engine %q (want batched or reference)", s)
}

// Config assembles a device.
type Config struct {
	Prog *asm.Program

	// Engine picks the active-phase loop; the zero value is batched.
	// See EngineBatched/EngineReference.
	Engine Engine

	Power energy.PowerModel

	// Capacitor and thresholds. The device begins executing at VOn and
	// browns out at VOff (Fig. 1's minimum threshold behaviour).
	CapC    float64 // farads
	CapVMax float64
	VOn     float64
	VOff    float64

	// Harvester charges the capacitor; nil models a bench supply that
	// recharges instantly between fixed-energy active periods.
	Harvester *energy.Harvester

	// NVM checkpoint bandwidths in bytes/cycle (σ_B, σ_R of Table I).
	SigmaB float64
	SigmaR float64
	// Extra energy per checkpointed byte beyond the memory-class cycle
	// energy (models expensive NVM writes, Ω_B/Ω_R adjustments).
	OmegaBExtra float64
	OmegaRExtra float64

	// Mixed-volatility cache (§VI-A): when CacheBlockSize > 0, data
	// accesses run through a volatile writeback cache in front of FRAM.
	// Misses pay a block-fill penalty at σ_R and dirty evictions a
	// writeback at σ_B; the cache's dirty blocks are the backup payload
	// cache-aware strategies flush at checkpoints. The cache is a
	// timing/energy model — architectural data still lives in the
	// memory system — and is invalidated on every power failure.
	CacheBlockSize int
	CacheSets      int
	CacheWays      int

	// Run limits.
	MaxCycles  uint64 // total consumed cycles; default 500M
	MaxPeriods int    // default 100k

	// Faults, when non-nil, attacks the run: scheduled supply cuts, torn
	// checkpoint writes, bit flips in stored checkpoints and forced
	// stale restores (see internal/faults). Attaching an injector also
	// switches backup/restore to word-granular accounting that charges
	// the commit-record transfers to τ_B/τ_R; with a nil injector the
	// accounting is bit-identical to the assumed-atomic simulator.
	Faults FaultInjector

	// RunTimeout is a wall-clock budget for one Run call, enforced by a
	// coarse cycle-batch check so a runaway kernel or pathological
	// harvester configuration cannot wedge a sweep. Expiry aborts the
	// run with a *DeadlineError wrapping ErrDeadlineExceeded. Zero
	// means no deadline. The check never touches simulation state, so
	// results are unaffected unless the deadline actually fires.
	RunTimeout time.Duration

	// Interrupt, when non-nil, is polled on the same coarse batch
	// schedule as RunTimeout; a non-nil return aborts the run with that
	// error. The parallel sweep engine (internal/runner) wires context
	// cancellation through this hook.
	Interrupt func() error

	// Observe receives the run's lifecycle events (internal/obsv). Nil
	// disables observability at the cost of a nil check per emission
	// site — the engine benchmark guard pins that path at zero
	// overhead. A device-private tracer may assume single-goroutine
	// delivery.
	Observe obsv.Tracer

	// DetectLivelock turns the fixed-point test into a diagnosis: on a
	// bench supply (nil Harvester) with no fault injector, a period that
	// ends without halting, commits nothing and stores nothing to FRAM
	// leaves every piece of state the next period boots from unchanged,
	// so once the next period repeats it — same stats, same death PC —
	// every later one does too. Run then fail-stops with a
	// *NoProgressError (Livelock=true) naming the region entry instead
	// of burning MaxPeriods — on both engines, at the same period, for
	// any strategy. Without it the batched engine replays such a fixed
	// point up to the run limits instead when the strategy is Memoryless
	// (see Run). Ignored under a harvester or an injector, where
	// consecutive periods legitimately differ.
	DetectLivelock bool

	// Record, when non-nil, logs the run's observation sequence (input
	// reads, committed outputs, checkpoint/restore lineage) for the
	// formal correctness oracle (internal/faults). Both engines log
	// every input read and watched store with its exact
	// per-instruction timestamp; the recorder is write-only, so results
	// and batching are unchanged (see obslog.go).
	Record *ObsLog
}

func (c *Config) setDefaults() {
	if c.SigmaB == 0 {
		c.SigmaB = 2 // FRAM word per two cycles (§III)
	}
	if c.SigmaR == 0 {
		c.SigmaR = 2
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 500_000_000
	}
	if c.MaxPeriods == 0 {
		c.MaxPeriods = 100_000
	}
}

// WithDefaults returns the config exactly as a device built from it
// reports via Cfg(): zero fields filled with their defaults and the
// strategy's CacheSizer block size applied. Memoization layers use it to
// reproduce the defaulted config for a cache hit without constructing a
// device, and to hash equivalent configs identically however they were
// spelled.
func (c Config) WithDefaults(s Strategy) Config {
	c.setDefaults()
	if c.CacheBlockSize == 0 && s != nil {
		if cs, ok := s.(CacheSizer); ok {
			c.CacheBlockSize = cs.CacheBlockSize()
		}
	}
	return c
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Prog == nil || len(c.Prog.Code) == 0 {
		return fmt.Errorf("device: config needs a program")
	}
	if err := c.Power.Validate(); err != nil {
		return err
	}
	if c.CapC <= 0 || c.CapVMax <= 0 {
		return fmt.Errorf("device: capacitor C=%g Vmax=%g must be positive", c.CapC, c.CapVMax)
	}
	if !(0 <= c.VOff && c.VOff < c.VOn && c.VOn <= c.CapVMax) {
		return fmt.Errorf("device: need 0 ≤ VOff < VOn ≤ VMax, have %g/%g/%g", c.VOff, c.VOn, c.CapVMax)
	}
	if c.SigmaB <= 0 || c.SigmaR <= 0 {
		return fmt.Errorf("device: σ_B=%g σ_R=%g must be positive", c.SigmaB, c.SigmaR)
	}
	if c.OmegaBExtra < 0 || c.OmegaRExtra < 0 {
		return fmt.Errorf("device: Ω extras must be ≥ 0")
	}
	if c.RunTimeout < 0 {
		return fmt.Errorf("device: RunTimeout %v must be ≥ 0", c.RunTimeout)
	}
	if c.Engine < EngineBatched || c.Engine > EngineReference {
		return fmt.Errorf("device: unknown engine %d", int(c.Engine))
	}
	return nil
}

// FixedSupplyConfig builds the capacitor parameters for a bench-style
// supply delivering exactly eJoules per active period: the capacitor is
// sized so its usable energy between VOn and VOff equals eJoules, and
// with no harvester the recharge is instantaneous.
func FixedSupplyConfig(eJoules float64) (capC, vMax, vOn, vOff float64) {
	// choose VOn = 3 V, VOff = 1.8 V (MSP430-like thresholds)
	vOn, vOff = 3.0, 1.8
	capC = 2 * eJoules / (vOn*vOn - vOff*vOff)
	return capC, vOn, vOn, vOff
}

// Device is one simulated intermittent platform.
type Device struct {
	cfg   Config
	strat Strategy

	core  *cpu.Core
	mem   *mem.System
	cap   *energy.Capacitor
	cache *mem.Cache // nil when not configured

	// store is the FRAM checkpoint area the two-phase commit protocol
	// writes to (see ckpt.go); inj is the attached fault injector, nil
	// for honest power.
	store *energy.CheckpointArea
	inj   FaultInjector

	// Volatile mirrors of nonvolatile state, resynced from the store at
	// every boot: the committed output stream, which slot holds the live
	// checkpoint (-1 none), and whether a restorable checkpoint exists.
	committedOut []uint32
	activeSlot   int
	hasCkpt      bool
	// everCommitted distinguishes a cold start that lost a checkpoint
	// (counted as a recovery event) from one that never had any.
	everCommitted bool
	// framWrites counts data stores to nonvolatile memory since the run
	// began; each checkpoint records the count at its commit. Rolling
	// execution back past a commit cannot roll these stores back, so a
	// restore older than the newest commit is only crash-consistent when
	// the two counts match (see the unrecoverability guard in ckpt.go).
	framWrites uint64
	// maxSeq is the newest commit sequence number that ever landed — the
	// ground truth the staleness guard compares restore targets against.
	maxSeq uint64
	// ckptBuf is the reusable checkpoint image buffer encodeCheckpoint
	// fills; nothing retains the image past writeCheckpoint.
	ckptBuf []uint32
	// stratNaive mirrors the strategy's NaiveCommitter claim: the
	// attached runtime itself selects the single-slot unvalidated
	// commit (alpaca-naive). Effective only while an injector is
	// attached — see naiveCommit.
	stratNaive bool

	timeS  float64
	cycles uint64 // total consumed cycles (exec+backup+restore+idle)

	// Interrupt/deadline polling (run.go): wall-clock start of the
	// current Run and the simulated work since the last real check.
	runStart  time.Time
	sincePoll uint64

	// Batched-engine state (run.go): the SYS codes that end a batch, the
	// strategy's PreStep filter (nil without one), and the worst-case
	// active energy per cycle the event-horizon math uses.
	stopSys isa.SysMask
	filter  PreStepFilter
	maxEPC  float64
	// sleep counts the fused sleep's chunks by path (sleep.go).
	sleep sleepChunks

	// The power model evaluated once by New: the cycle period and each
	// class's energy per cycle. consume, BackupCost, the restore charge
	// and fusedBatch multiply by these instead of dividing by FreqHz on
	// every instruction; each entry is the very quotient PowerModel
	// returns, so every product keeps its bits.
	cyclePeriod float64
	epc         [energy.NumClasses]float64

	// obs is the attached lifecycle tracer; nil means observability is
	// disabled and every emission site reduces to this nil check
	// (observe.go).
	obs obsv.Tracer

	// rec is the attached observation recorder (obslog.go); nil means
	// no recording and each hook reduces to a nil check. bkupStart
	// remembers the consumed-cycle position the current backup began
	// at, for the recorder's commit records.
	rec       *ObsLog
	bkupStart uint64

	// No-progress diagnosis state (run.go): where the last brown-out
	// hit and the boot PC of the current period (the atomic-region
	// entry).
	deathPC    uint32
	deathSince uint64
	bootPC     uint32

	// ff is the fixed-point fast-forward state (fastforward.go); tape is
	// non-nil only while the batched engine records a period to replay.
	ff   fixedPoint
	tape *periodTape

	// per-period running counters
	period        PeriodStats
	sinceCommit   uint64  // executed cycles not yet committed by a backup
	pendingE      float64 // energy of those uncommitted cycles
	execSinceBkup uint64  // executed cycles since last backup (for τ_B)
	chargeS       float64 // recharge time preceding the current period

	result Result
	halted bool // final commit landed; run complete
}

// New builds a device running prog under strategy s.
func New(cfg Config, s Strategy) (*Device, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("device: nil strategy")
	}
	if cfg.CacheBlockSize == 0 {
		if cs, ok := s.(CacheSizer); ok {
			cfg.CacheBlockSize = cs.CacheBlockSize()
		}
	}
	ms, err := mem.NewSystem(mem.DefaultSRAMSize, mem.DefaultFRAMSize)
	if err != nil {
		return nil, err
	}
	cap_, err := energy.NewCapacitor(cfg.CapC, cfg.CapVMax, 0)
	if err != nil {
		return nil, err
	}
	d := &Device{
		cfg:        cfg,
		strat:      s,
		core:       &cpu.Core{},
		mem:        ms,
		cap:        cap_,
		store:      energy.NewCheckpointArea(),
		inj:        cfg.Faults,
		activeSlot: -1,
	}
	if cfg.CacheBlockSize > 0 {
		sets, ways := cfg.CacheSets, cfg.CacheWays
		if sets == 0 {
			sets = 16
		}
		if ways == 0 {
			ways = 2
		}
		cache, err := mem.NewCache(cfg.CacheBlockSize, sets, ways)
		if err != nil {
			return nil, err
		}
		d.cache = cache
	}
	d.obs = cfg.Observe
	d.cyclePeriod = cfg.Power.CyclePeriod()
	for c := range d.epc {
		d.epc[c] = cfg.Power.EnergyPerCycle(energy.InstrClass(c))
	}
	d.maxEPC = math.Max(d.epc[energy.ClassALU], d.epc[energy.ClassMem])
	if so, ok := s.(SysObserver); ok {
		d.stopSys = so.ObservedSys()
	} else {
		d.stopSys = isa.AllSys
	}
	d.filter, _ = s.(PreStepFilter)
	if nc, ok := s.(NaiveCommitter); ok && nc.NaiveCommit() {
		d.stratNaive = true
	}
	d.rec = cfg.Record
	s.Attach(d)
	return d, nil
}

// Cache returns the mixed-volatility cache model, or nil when the
// device is configured without one. Cache-aware strategies read its
// dirty-block payload and flush it at checkpoints.
func (d *Device) Cache() *mem.Cache { return d.cache }

// Engine reports the loop that steps the device's active phases: the
// configured engine, except that a cache model, which is per-access,
// always steps the reference loop.
func (d *Device) Engine() Engine {
	if d.cache != nil {
		return EngineReference
	}
	return d.cfg.Engine
}

// FastForwardPeriods reports how many periods of the last Run the
// batched engine replayed from a confirmed fixed point instead of
// simulating them (fastforward.go).
func (d *Device) FastForwardPeriods() uint64 { return d.ff.replayed }

// --- accessors strategies use ---

// Cfg returns the device configuration.
func (d *Device) Cfg() Config { return d.cfg }

// PC returns the core's current program counter. In a PreStep hook it
// is the instruction about to execute (and the PC a backup taken there
// resumes at); in PostStep it has already advanced past the executed
// instruction. Task runtimes key their boundary table on it.
func (d *Device) PC() uint32 { return d.core.PC }

// Voltage returns the current capacitor voltage.
func (d *Device) Voltage() float64 { return d.cap.Voltage() }

// StoredEnergy returns the capacitor's usable energy above VOff,
// clamped at zero when the voltage sits below the brown-out threshold.
func (d *Device) StoredEnergy() float64 {
	e := d.cap.UsableEnergy(d.cap.Voltage(), d.cfg.VOff)
	if e < 0 {
		return 0
	}
	return e
}

// FullSupply returns the usable energy of a freshly charged capacitor —
// the model's E. Threshold-based strategies use it to place their
// trigger voltage relative to the period budget.
func (d *Device) FullSupply() float64 {
	return d.cap.UsableEnergy(d.cfg.VOn, d.cfg.VOff)
}

// ExecSinceBackup returns executed cycles since the last committed
// backup — the live τ_B counter watchdog strategies use.
func (d *Device) ExecSinceBackup() uint64 { return d.execSinceBkup }

// SRAMFootprint is the number of volatile bytes a full-memory
// checkpoint must save: the program's initialized SRAM data, word
// aligned, or at least one word.
func (d *Device) SRAMFootprint() int {
	n := len(d.cfg.Prog.SRAMImage)
	if n == 0 {
		n = 4
	}
	return (n + 3) &^ 3
}

// BackupCost estimates the energy a backup of the payload would consume
// — what Hibernus-style strategies need to place their voltage
// threshold.
func (d *Device) BackupCost(p Payload) float64 {
	cycles := d.transferCycles(p.Bytes(), d.cfg.SigmaB)
	return float64(cycles)*d.epc[energy.ClassMem] +
		float64(p.Bytes())*d.cfg.OmegaBExtra
}

// HasCheckpoint reports whether a restorable committed checkpoint
// exists. Under fault injection this can revert to false when both
// checkpoint slots are corrupted and the device cold-restarts.
func (d *Device) HasCheckpoint() bool { return d.hasCkpt }

// CyclesAboveEnergy returns a conservative count of cycles the device
// can execute before its stored energy (above VOff) could drop to
// target: worst active class, harvesting ignored, and a slack margin
// subtracted to swallow floating-point drift. Threshold strategies use
// it as their Horizon — the guarantee is one-sided: the true crossing
// never happens sooner, so a batch bounded by it cannot skip past the
// step where the per-step engine would have fired.
func (d *Device) CyclesAboveEnergy(target float64) uint64 {
	if d.maxEPC <= 0 {
		return HorizonInfinite
	}
	avail := d.StoredEnergy() - target
	if avail <= 0 {
		return 0
	}
	n := avail / d.maxEPC
	if n >= 1<<62 {
		return HorizonInfinite
	}
	return horizonSlack(uint64(n))
}

// horizonSlack shaves a safety margin off a conservatively computed
// cycle horizon: 64 cycles absolute (covering the ≤ 7-cycle instruction
// overshoot many times over) plus 2⁻¹⁶ relative (orders of magnitude
// above the ~2⁻⁵² relative error a batch's float arithmetic can
// accumulate). Horizons at or below the margin round down to zero,
// which the engine treats as "per-step territory".
func horizonSlack(n uint64) uint64 {
	slack := 64 + n>>16
	if n <= slack {
		return 0
	}
	return n - slack
}

func (d *Device) transferCycles(bytes int, sigma float64) uint64 {
	if bytes <= 0 {
		return 0
	}
	return uint64(math.Ceil(float64(bytes) / sigma))
}

// consume draws energy for n cycles of the given class, harvesting in
// parallel, and reports whether the supply survived (stayed at or above
// VOff).
func (d *Device) consume(n uint64, class energy.InstrClass) bool {
	if n == 0 {
		return d.cap.Voltage() >= d.cfg.VOff
	}
	dt := float64(n) * d.cyclePeriod
	if d.cfg.Harvester != nil {
		h := d.cfg.Harvester.EnergyOver(d.timeS, dt)
		d.period.HarvestedE += d.cap.Store(h)
	}
	d.timeS += dt
	d.cycles += n
	if d.tape != nil {
		d.tape.add(dt, n)
	}
	e := float64(n) * d.epc[class]
	ok := d.cap.Draw(e)
	alive := ok && d.cap.Voltage() >= d.cfg.VOff
	// Scheduled supply faults fire independent of the capacitor model:
	// the injector empties the store mid-flight, wherever execution is.
	if alive && d.inj != nil && d.inj.PowerCutDue(d.cycles) {
		d.cap.SetVoltage(0)
		d.result.Faults.PowerCuts++
		if d.obs != nil {
			d.emit(obsv.EvFaultPowerCut, 0, 0, 0)
		}
		return false
	}
	return alive
}

// drawExtra draws flat energy (per-byte NVM surcharges) with no time
// passing.
func (d *Device) drawExtra(e float64) bool {
	if e <= 0 {
		return d.cap.Voltage() >= d.cfg.VOff
	}
	ok := d.cap.Draw(e)
	return ok && d.cap.Voltage() >= d.cfg.VOff
}
