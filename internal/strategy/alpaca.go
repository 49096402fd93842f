package strategy

import (
	"ehmodel/internal/analyze"
	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/isa"
	"ehmodel/internal/obsv"
)

// Alpaca models the checkpoint-free task-based runtime of Maeng,
// Colin & Lucia: the program is decomposed into idempotent tasks, a
// task's writes go to privatized buffers, and the buffers flush to
// the live image with a two-phase atomic commit at the task boundary.
// There are no checkpoints in the programmer's sense — the only
// persistent record is the last committed task boundary, and a reboot
// re-executes the interrupted task from that boundary.
//
// The task boundaries come from the static decomposition pass
// (analyze.Tasks): programmer SysTaskEnd markers plus the WAR-cut
// boundaries that make every task idempotent, so re-execution is
// always safe. The simulator realizes privatization with the dirty
// word set of the in-flight task — the commit payload is the
// architectural state plus exactly the words the task produced — and
// rides the device's two-slot CRC-validated commit protocol for the
// two-phase atomicity. Programs whose addresses the static pass
// cannot fully resolve fall back to committing at SysTaskEnd markers
// only (the Chain discipline), which is still correct: boundaries
// only ever shrink the re-executed span.
//
// Static tasks can be tiny — a hot loop with a WAR hazard cuts a
// boundary every iteration — and committing each one would pay the
// backup transfer (and expose a commit window to faults) hundreds of
// times more often than any checkpoint runtime. Like the adaptive
// task-sizing literature (Coala), the runtime therefore coalesces
// consecutive tasks: a boundary only triggers a commit once at least
// Coalesce instructions ran since the last one; earlier boundaries
// are skipped and recorded as the coalesced span. Skipping is sound
// because the commit image snapshots the data footprint, so a restore
// rolls memory back to the committed boundary no matter how many
// skipped boundaries re-execution will recross.
type Alpaca struct {
	base
	naive bool

	// Coalesce is the minimum number of executed instructions between
	// boundary commits. Boundaries reached earlier are skipped (the
	// privatized write set keeps accumulating). Zero selects
	// DefaultCoalesce; 1 commits at every boundary.
	Coalesce int

	table  *analyze.TaskTable
	bounds map[uint32]struct{} // static task-boundary PCs
	dirty  map[uint32]struct{} // privatized words of the in-flight task
	entry  uint32              // boundary the in-flight task started at
	span   []uint32            // task entries coalesced since the last commit

	recordCommits bool
	commits       []TaskCommit
}

// DefaultCoalesce is the default minimum instruction count between
// boundary commits. It puts the commit cadence in the same regime as
// the checkpoint runtimes, so the audit's per-word fault rates expose
// the alpaca family comparably instead of hitting its (otherwise
// per-loop-iteration) commits hundreds of times more often.
const DefaultCoalesce = 256

// TaskCommit records one committed (possibly coalesced) task for
// cross-validation against the static per-task footprints: the
// boundary PC the span entered at, the entries of the further tasks
// coalesced into the commit, and the privatized words it flushed.
type TaskCommit struct {
	Entry uint32
	Span  []uint32
	Words []uint32
}

// maxRecordedCommits caps the cross-validation log so long audited
// runs cannot grow it without bound.
const maxRecordedCommits = 1 << 14

// NewAlpaca returns the task-based runtime.
func NewAlpaca() *Alpaca {
	a := &Alpaca{}
	a.Reset()
	return a
}

// NewAlpacaNaive returns the deliberately broken variant: it runs the
// same task protocol but tells the device to commit non-atomically in
// place (single slot, no CRC validation), so a power failure inside a
// commit window leaves torn state a restart then trusts. It exists as
// the adversarial campaign's known-bad target and is not in the
// catalog.
func NewAlpacaNaive() *Alpaca {
	a := NewAlpaca()
	a.naive = true
	return a
}

// Name implements device.Strategy.
func (a *Alpaca) Name() string {
	if a.naive {
		return "alpaca-naive"
	}
	return "alpaca"
}

// NaiveCommit implements device.NaiveCommitter: the naive variant
// asks the device for non-atomic in-place commits (effective only
// under a fault injector, so fault-free runs of both variants are
// identical).
func (a *Alpaca) NaiveCommit() bool { return a.naive }

// RecordCommits enables the per-commit log Commits returns, for the
// footprint cross-validation tests.
func (a *Alpaca) RecordCommits() { a.recordCommits = true }

// Commits returns the recorded task commits (nil unless
// RecordCommits was called before the run).
func (a *Alpaca) Commits() []TaskCommit { return a.commits }

// Table returns the static task table Attach derived, or nil when the
// decomposition fell back to SysTaskEnd markers only.
func (a *Alpaca) Table() *analyze.TaskTable { return a.table }

// Reset drops the in-flight task's privatized writes and coalesced
// span. It runs at every boot and commit, so it empties both in place
// and keeps their storage (record copies what it logs).
func (a *Alpaca) Reset() {
	if a.dirty == nil {
		a.dirty = make(map[uint32]struct{})
	}
	clear(a.dirty)
	a.span = a.span[:0]
}

// coalesce returns the effective minimum instruction count between
// boundary commits.
func (a *Alpaca) coalesce() int {
	if a.Coalesce > 0 {
		return a.Coalesce
	}
	return DefaultCoalesce
}

// maxSpan caps the recorded coalesced span: re-execution recrosses the
// same skipped boundaries, and the span only feeds footprint
// cross-validation, so duplicates beyond the cap carry no information.
const maxSpan = 1 << 10

// skip records a boundary the runtime coalesced past instead of
// committing at.
func (a *Alpaca) skip(entry uint32) {
	if len(a.span) < maxSpan {
		a.span = append(a.span, entry)
	}
}

// Attach runs the static task decomposition over the device's program.
// A program the pass cannot decompose (unresolvable addresses, e.g.
// fuzzer-generated code) keeps a nil table and commits at SysTaskEnd
// markers only.
func (a *Alpaca) Attach(d *device.Device) {
	cfg := d.Cfg()
	a.table = nil
	a.bounds = nil
	tt, err := analyze.Tasks(cfg.Prog, analyze.Options{
		SRAMSize: cfg.SRAMSize,
		FRAMSize: cfg.FRAMSize,
	})
	if err == nil {
		a.table = tt
		a.bounds = tt.BoundarySet()
	}
	a.entry = 0
	a.commits = nil
}

// Boot anchors re-execution: the in-flight task restarts at the PC the
// last committed boundary recorded.
func (a *Alpaca) Boot(d *device.Device) *device.Payload {
	a.Reset()
	a.entry = d.PC()
	if d.HasCheckpoint() {
		d.Trace(obsv.EvTaskReexec, uint64(a.entry), 0)
	}
	return nil
}

func (a *Alpaca) payload() device.Payload {
	return device.Payload{
		ArchBytes: cpu.ArchStateBytes,
		AppBytes:  4 * len(a.dirty),
		SaveSRAM:  true,
	}
}

// record appends the in-flight (possibly coalesced) task to the
// cross-validation log when enabled.
func (a *Alpaca) record() {
	if !a.recordCommits || len(a.commits) >= maxRecordedCommits {
		return
	}
	words := make([]uint32, 0, len(a.dirty))
	for w := range a.dirty {
		words = append(words, w)
	}
	var span []uint32
	if len(a.span) > 0 {
		span = append(span, a.span...)
	}
	a.commits = append(a.commits, TaskCommit{Entry: a.entry, Span: span, Words: words})
}

// commit flushes the privatized buffer and opens the next task at pc.
func (a *Alpaca) commit(d *device.Device, pc uint32) *device.Payload {
	p := a.payload()
	d.Trace(obsv.EvTaskCommit, uint64(p.AppBytes), uint64(a.entry))
	d.Trace(obsv.EvTrigger, uint64(obsv.TrigTaskEnd), uint64(p.Bytes()))
	a.record()
	a.Reset()
	a.entry = pc
	return &p
}

// PreStep commits at static WAR-cut boundaries — once the coalescing
// threshold has accumulated — and privatizes the in-flight task's
// writes. ExecSinceBackup (which resets on every backup and restore)
// doubles as the coalescing counter, so right after a restore the
// device never re-commits an empty task at the boundary it woke up on.
func (a *Alpaca) PreStep(d *device.Device, _ isa.Instr, acc device.AccessPreview) *device.Payload {
	var p *device.Payload
	if a.bounds != nil && d.ExecSinceBackup() > 0 {
		if pc := d.PC(); isBound(a.bounds, pc) {
			if d.ExecSinceBackup() >= uint64(a.coalesce()) {
				p = a.commit(d, pc)
			} else {
				a.skip(pc)
			}
		}
	}
	if acc.Valid && acc.Store {
		a.dirty[acc.Addr&^3] = struct{}{}
	}
	return p
}

// PostStep commits at programmer task ends, under the same coalescing
// rule as the static boundaries.
func (a *Alpaca) PostStep(d *device.Device, st cpu.Step) *device.Payload {
	if !st.HasSys || st.Sys != isa.SysTaskEnd {
		return nil
	}
	if d.ExecSinceBackup() < uint64(a.coalesce()) {
		a.skip(d.PC())
		return nil
	}
	return a.commit(d, d.PC())
}

// FinalPayload commits whatever the trailing span produced.
func (a *Alpaca) FinalPayload(d *device.Device) device.Payload {
	p := a.payload()
	a.record()
	a.Reset()
	return p
}

func isBound(bounds map[uint32]struct{}, pc uint32) bool {
	_, ok := bounds[pc]
	return ok
}

// Regions implements device.RegionObserver: Alpaca commits only at the
// static task boundaries of analyze.Tasks (coalescing skips commit
// opportunities, it never adds any), so task-mode WCEC verdicts apply.
func (a *Alpaca) Regions() device.RegionScheme { return device.RegionTaskBoundaries }

var (
	_ device.Strategy       = (*Alpaca)(nil)
	_ device.NaiveCommitter = (*Alpaca)(nil)
	_ device.RegionObserver = (*Alpaca)(nil)
)
