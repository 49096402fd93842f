package device

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ehmodel/internal/cpu"
	"ehmodel/internal/energy"
	"ehmodel/internal/isa"
	"ehmodel/internal/obsv"
)

// ErrUnrecoverable is the sentinel a Run error matches (errors.Is) when
// the honest restore path detects that recovery would be crash-
// inconsistent: the only restorable state is older than the newest
// commit, and nonvolatile data was written after it. Checkpoints roll
// back registers and SRAM, but FRAM stores are permanent — replaying
// the gap would re-execute against "future" memory and silently diverge
// from the continuous-power semantics. Failing stop with a typed error
// is the honest outcome; the crash-consistency auditor counts it as a
// detected fault, not a violation.
var ErrUnrecoverable = errors.New("device: nonvolatile state unrecoverable")

// UnrecoverableError carries the evidence behind an ErrUnrecoverable.
type UnrecoverableError struct {
	// RestoreSeq is the newest checkpoint that survived validation (0
	// when none did and the device would have to cold-start); NewestSeq
	// is the newest commit that ever landed.
	RestoreSeq, NewestSeq uint64
	// LostStores is the number of FRAM data stores performed after the
	// restore target committed — writes no rollback can undo.
	LostStores uint64
}

func (e *UnrecoverableError) Error() string {
	return fmt.Sprintf("device: nonvolatile state unrecoverable: newest surviving checkpoint seq=%d predates commit seq=%d and %d FRAM stores",
		e.RestoreSeq, e.NewestSeq, e.LostStores)
}

// Is reports ErrUnrecoverable as the sentinel this error wraps.
func (e *UnrecoverableError) Is(target error) bool { return target == ErrUnrecoverable }

// This file implements the two-phase checkpoint commit the device runs
// on its FRAM checkpoint area (energy.CheckpointArea). A backup
// serializes execution state into words, writes them to the slot *not*
// holding the current checkpoint, then writes a commit record whose CRC
// word goes last — so a power failure between any two word writes leaves
// the previous commit record (and slot) intact. The restore path
// validates the newest record's CRC and falls back to the older slot, or
// cold-starts when neither survives.
//
// Cost model: with no fault injector attached, the backup/restore energy
// sequence is byte-for-byte the pre-protocol simulator's (one modeled
// payload transfer, commit records free), so EH-model accounting is
// unchanged. With an injector attached the device charges word-granular
// payload writes plus the commit-record transfers to τ_B/τ_R, which is
// what the protocol really costs on FRAM. Output-log word writes are
// free in both modes: committed outputs are a handful of words whose
// cost the paper folds into the checkpoint payload.

// FaultInjector is the hook surface the device offers a fault-injection
// subsystem (internal/faults implements it). All methods must be
// deterministic for a given seed; a nil injector means no faults and
// legacy-identical accounting.
type FaultInjector interface {
	// BeginRun resets per-run schedule state before a device run.
	BeginRun()
	// PowerCutDue reports whether a scheduled supply fault fires at or
	// before the given consumed-cycle count. The device empties the
	// capacitor immediately, independent of the harvesting model.
	PowerCutDue(cycles uint64) bool
	// NextPowerCut returns the earliest still-pending scheduled cut as an
	// absolute consumed-cycle count, or NoPowerCut when none is pending.
	// It must not mutate injector state: the batched engine peeks at it
	// every batch to clamp the batch so the cut fires on exactly the
	// instruction the per-step engine would have killed.
	NextPowerCut() uint64
	// TearBackup returns the payload word index after which to cut power
	// during a backup of nWords words, or -1 for no injected tear.
	TearBackup(nWords int) int
	// FlipBits corrupts stored checkpoint words in place (called once
	// per word array at every restore) and returns the number of bits
	// flipped.
	FlipBits(words []uint32) int
	// ForceStale reports whether this restore must distrust the newest
	// valid slot and recover from the older one.
	ForceStale() bool
	// NaiveCommit selects the injector's validation mode: a single-slot
	// commit with no CRC check on restore — the broken protocol the
	// crash-consistency auditor must catch.
	NaiveCommit() bool
}

// NoPowerCut is the NextPowerCut result meaning no scheduled supply
// fault is pending.
const NoPowerCut = ^uint64(0)

// Checkpoint image layout (32-bit words):
//
//	w0              flags (ckptFlag*)
//	w1              modeled architectural payload bytes (Payload.ArchBytes)
//	w2              modeled application payload bytes (Payload.AppBytes)
//	w3              core PC
//	w4              core sensor sequence counter
//	w5              SRAM snapshot length in bytes (0 when not saved)
//	w6,w7           FRAM data stores performed before this commit (lo, hi)
//	w8..w8+NumRegs  register file
//	...             SRAM snapshot words (little-endian packed)
const (
	ckptFlagSRAM   = 1 << 0
	ckptFlagHalted = 1 << 1
	ckptFlagsKnown = ckptFlagSRAM | ckptFlagHalted

	ckptHeaderWords = 8 + isa.NumRegs
)

// maxModeledBytes bounds the modeled payload sizes a decoded header may
// claim, so a corrupt header cannot demand an absurd restore transfer.
const maxModeledBytes = 1 << 24

// decodedCkpt is a checkpoint image parsed back into simulator state.
type decodedCkpt struct {
	payload    Payload
	core       cpu.Core
	sram       []byte // nil when the image carries no SRAM snapshot
	framWrites uint64 // FRAM data stores performed before this commit
}

// encodeCheckpoint serializes the current execution state. The core's
// volatile output buffer is excluded: committed outputs live in the
// checkpoint area's output log, referenced by the commit record. SRAM
// snapshots cover the program's data footprint — the bytes the modeled
// AppBytes payload actually pays for — not the whole physical SRAM,
// read through a view rather than a copy. The image is encoded into a
// buffer the device reuses, so it is valid only until the next call;
// writeCheckpoint copies it word by word into the checkpoint area.
func (d *Device) encodeCheckpoint(p Payload) []uint32 {
	var sram []byte
	if p.SaveSRAM {
		sram = d.mem.SRAMPrefix(d.SRAMFootprint())
	}
	words := d.ckptBuf[:0]
	var flags uint32
	if p.SaveSRAM {
		flags |= ckptFlagSRAM
	}
	if d.core.Halted {
		flags |= ckptFlagHalted
	}
	words = append(words, flags, uint32(p.ArchBytes), uint32(p.AppBytes),
		d.core.PC, d.core.SenseSeq, uint32(len(sram)),
		uint32(d.framWrites), uint32(d.framWrites>>32))
	for _, r := range d.core.Regs {
		words = append(words, r)
	}
	for i := 0; i+4 <= len(sram); i += 4 {
		words = append(words, binary.LittleEndian.Uint32(sram[i:]))
	}
	d.ckptBuf = words
	return words
}

// decodeCheckpoint parses an image, validating structure against the
// device's SRAM size. Errors mean the image is not a well-formed
// checkpoint — impossible for a CRC-validated slot, expected for the
// naive-commit validation mode restoring torn or corrupted state.
func decodeCheckpoint(words []uint32, wantSRAM int) (*decodedCkpt, error) {
	if len(words) < ckptHeaderWords {
		return nil, fmt.Errorf("checkpoint image %d words, need ≥ %d", len(words), ckptHeaderWords)
	}
	flags := words[0]
	if flags&^uint32(ckptFlagsKnown) != 0 {
		return nil, fmt.Errorf("checkpoint flags %#x unknown", flags)
	}
	arch, app := words[1], words[2]
	if arch > maxModeledBytes || app > maxModeledBytes {
		return nil, fmt.Errorf("checkpoint payload sizes %d/%d implausible", arch, app)
	}
	sramBytes := int(words[5])
	if flags&ckptFlagSRAM != 0 {
		if sramBytes != wantSRAM {
			return nil, fmt.Errorf("checkpoint sram snapshot %d bytes, device has %d", sramBytes, wantSRAM)
		}
	} else if sramBytes != 0 {
		return nil, fmt.Errorf("checkpoint claims %d sram bytes without the snapshot flag", sramBytes)
	}
	if want := ckptHeaderWords + sramBytes/4; len(words) != want {
		return nil, fmt.Errorf("checkpoint image %d words, layout requires %d", len(words), want)
	}
	ck := &decodedCkpt{
		payload: Payload{
			ArchBytes: int(arch),
			AppBytes:  int(app),
			SaveSRAM:  flags&ckptFlagSRAM != 0,
		},
	}
	ck.framWrites = uint64(words[6]) | uint64(words[7])<<32
	ck.core.PC = words[3]
	ck.core.SenseSeq = words[4]
	ck.core.Halted = flags&ckptFlagHalted != 0
	copy(ck.core.Regs[:], words[8:8+isa.NumRegs])
	if ck.payload.SaveSRAM {
		ck.sram = make([]byte, sramBytes)
		for i := 0; i < sramBytes/4; i++ {
			binary.LittleEndian.PutUint32(ck.sram[4*i:], words[ckptHeaderWords+i])
		}
	}
	return ck, nil
}

// naiveCommit reports whether the checkpoint machinery runs in the
// naive single-slot, unvalidated mode — selected by the injector's
// validation mode or by a NaiveCommitter strategy (alpaca-naive). Both
// routes require an attached injector, so fault-free accounting stays
// identical to the assumed-atomic simulator.
func (d *Device) naiveCommit() bool {
	return d.inj != nil && (d.stratNaive || d.inj.NaiveCommit())
}

// targetSlot picks where the next backup writes: the slot not holding
// the live checkpoint, or always slot 0 in naive single-slot mode.
func (d *Device) targetSlot() int {
	if d.naiveCommit() {
		return 0
	}
	if d.activeSlot < 0 {
		return 0
	}
	return 1 - d.activeSlot
}

// writeCheckpoint runs the two-phase commit for payload p. It returns
// false when the supply died before the commit record completed; the
// previous checkpoint (in the other slot) is then still the newest valid
// one. Energy accounting is the caller's job.
func (d *Device) writeCheckpoint(p Payload) bool {
	words := d.encodeCheckpoint(p)
	target := d.targetSlot()

	// Phase 0: append pending outputs to the log. These words are
	// scratch until the commit record advances OutLen over them.
	outBase := len(d.committedOut)
	for i, w := range d.core.OutBuf {
		d.store.WriteOut(outBase+i, w)
	}
	outLen := outBase + len(d.core.OutBuf)

	cyc := d.transferCycles(p.Bytes(), d.cfg.SigmaB)
	omega := float64(p.Bytes()) * d.cfg.OmegaBExtra

	if d.inj == nil {
		// Legacy-identical energy sequence: one modeled transfer, one
		// surcharge; the word writes and commit record are then free.
		ok := d.consume(cyc, energy.ClassMem)
		if ok {
			ok = d.drawExtra(omega)
		}
		if !ok {
			return false
		}
		// Size the slot once: growing it word by word would reallocate
		// on every word of the first commit to each slot.
		d.store.EnsureSlot(target, len(words))
		for i, w := range words {
			d.store.WriteSlotWord(target, i, w)
		}
		rec := energy.CommitRecord{Seq: d.store.NextSeq(), OutLen: uint32(outLen), Len: uint32(len(words))}
		rec.CRC = energy.ChecksumSlot(words, rec)
		for i, w := range rec.EncodeRecord() {
			d.store.WriteRecordWord(target, i, w)
		}
		d.afterCommit(target, outLen, rec.Seq)
		return true
	}

	// Phase 1: word-granular payload writes, attackable mid-stream.
	d.store.EnsureSlot(target, len(words))
	tearAt := d.inj.TearBackup(len(words))
	if !d.writeWords(words, cyc, omega, tearAt, func(i int, w uint32) {
		d.store.WriteSlotWord(target, i, w)
	}) {
		d.result.Faults.TornBackups++
		if tearAt >= 0 {
			d.result.Faults.InjectedTears++
		}
		if d.obs != nil {
			var injected uint64
			if tearAt >= 0 {
				injected = 1
			}
			d.emit(obsv.EvFaultTear, 0, injected, 0)
		}
		return false
	}

	// Phase 2: the commit record, CRC word last. The commit lands the
	// instant that word is written.
	rec := energy.CommitRecord{Seq: d.store.NextSeq(), OutLen: uint32(outLen), Len: uint32(len(words))}
	rec.CRC = energy.ChecksumSlot(words, rec)
	enc := rec.EncodeRecord()
	recCyc := d.transferCycles(energy.CommitRecordBytes, d.cfg.SigmaB)
	recOmega := float64(energy.CommitRecordBytes) * d.cfg.OmegaBExtra
	if !d.writeWords(enc[:], recCyc, recOmega, -1, func(i int, w uint32) {
		d.store.WriteRecordWord(target, i, w)
	}) {
		d.result.Faults.TornBackups++
		if d.obs != nil {
			d.emit(obsv.EvFaultTear, 0, 0, 0)
		}
		return false
	}
	d.afterCommit(target, outLen, rec.Seq)
	return true
}

// writeWords performs a word-granular FRAM transfer: each word draws its
// proportional share of the modeled cycles and surcharge before it
// lands, so a supply failure (scheduled cut or real brown-out) between
// words leaves a torn write. tearAt injects a cut right after that word.
func (d *Device) writeWords(words []uint32, totalCyc uint64, totalOmega float64, tearAt int, write func(int, uint32)) bool {
	n := uint64(len(words))
	var doneCyc uint64
	for i, w := range words {
		stepCyc := totalCyc*uint64(i+1)/n - doneCyc
		doneCyc += stepCyc
		if stepCyc > 0 && !d.consume(stepCyc, energy.ClassMem) {
			return false
		}
		if !d.drawExtra(totalOmega / float64(n)) {
			return false
		}
		write(i, w)
		if i == tearAt {
			d.cap.SetVoltage(0)
			return false
		}
	}
	return true
}

// afterCommit publishes a landed commit to the device's volatile
// mirrors: the committed output stream and the live-slot tracking.
func (d *Device) afterCommit(target, outLen int, seq uint64) {
	if d.rec != nil {
		d.rec.commit(seq, d.bkupStart, d.cycles, int32(len(d.result.Periods)),
			len(d.committedOut), d.core.OutBuf)
	}
	d.committedOut = append(d.committedOut, d.core.OutBuf...)
	d.core.OutBuf = nil
	d.activeSlot = target
	d.hasCkpt = true
	d.everCommitted = true
	if seq > d.maxSeq {
		d.maxSeq = seq
	}
	if len(d.committedOut) != outLen {
		// Internal invariant: the RAM mirror tracks the NVM log exactly.
		panic(fmt.Sprintf("device: committed output mirror %d != log %d", len(d.committedOut), outLen))
	}
}

// restoreCheckpoint selects and applies the newest valid checkpoint.
// restored=false with alive=true means a cold start (no usable
// checkpoint); alive=false means the supply died mid-restore and the
// period ends. Errors are simulator invariant breaches — or, in naive
// mode, the crash-consistency violations the auditor exists to catch.
func (d *Device) restoreCheckpoint() (restored, alive bool, err error) {
	if d.inj != nil {
		flips := 0
		for i := 0; i < 2; i++ {
			flips += d.inj.FlipBits(d.store.SlotWords(i))
			flips += d.inj.FlipBits(d.store.RecordWords(i))
		}
		d.result.Faults.BitFlips += flips
		if flips > 0 && d.obs != nil {
			d.emit(obsv.EvFaultBitFlips, uint64(flips), 0, 0)
		}
		if d.naiveCommit() {
			return d.restoreNaive()
		}
	}

	type cand struct {
		slot int
		rec  energy.CommitRecord
	}
	var cands []cand
	for i := 0; i < 2; i++ {
		if r, ok := d.store.Record(i); ok {
			cands = append(cands, cand{i, r})
		}
	}
	if len(cands) == 2 && cands[1].rec.Seq > cands[0].rec.Seq {
		cands[0], cands[1] = cands[1], cands[0]
	}
	if len(cands) == 0 {
		return d.coldStart()
	}

	if d.inj == nil {
		c := cands[0]
		if !d.store.Validate(c.slot) {
			return false, false, fmt.Errorf("device: slot %d checkpoint failed CRC validation without fault injection", c.slot)
		}
		return d.applySlot(c.slot, c.rec)
	}

	forced := d.inj.ForceStale() && len(cands) > 1
	if forced {
		d.result.Faults.ForcedStale++
	}
	for idx, c := range cands {
		// Read the candidate's commit record.
		if !d.chargeRestore(energy.CommitRecordBytes) {
			return false, false, nil
		}
		if forced && idx == 0 {
			continue
		}
		if !d.store.Validate(c.slot) {
			d.result.Faults.CRCRejections++
			if d.obs != nil {
				d.emit(obsv.EvCRCReject, uint64(c.slot), 0, 0)
			}
			// Charge the payload words read to discover the mismatch.
			n := int(c.rec.Len)
			if max := len(d.store.SlotWords(c.slot)); n > max {
				n = max
			}
			if !d.chargeRestore(4 * n) {
				return false, false, nil
			}
			continue
		}
		if idx > 0 {
			d.result.Faults.StaleRestores++
			if d.obs != nil {
				var force uint64
				if forced {
					force = 1
				}
				d.emit(obsv.EvStaleRestore, uint64(c.slot), force, 0)
			}
		}
		return d.applySlot(c.slot, c.rec)
	}
	return d.coldStart()
}

// restoreNaive is the injector's validation mode: trust slot 0's record
// without CRC validation — the "atomic by fiat" commit the honest
// protocol replaces. Torn or corrupted state is applied blindly; the
// resulting divergence (or decode failure) is what the auditor detects.
func (d *Device) restoreNaive() (restored, alive bool, err error) {
	rec, ok := d.store.Record(0)
	if !ok {
		return d.coldStart()
	}
	if !d.chargeRestore(energy.CommitRecordBytes) {
		return false, false, nil
	}
	n := int(rec.Len)
	if max := len(d.store.SlotWords(0)); n > max {
		n = max
	}
	ck, err := decodeCheckpoint(d.store.SlotWords(0)[:n], d.SRAMFootprint())
	if err != nil {
		return false, false, fmt.Errorf("device: naive commit restored a corrupt checkpoint: %w", err)
	}
	return d.applyDecoded(ck, 0, rec)
}

// coldStart records that no checkpoint survived; the caller boots from
// the program image. Under honest fault injection a cold start after
// FRAM data stores is the extreme case of the stale-restore hazard —
// replaying from scratch against mutated nonvolatile memory — so it
// fail-stops with the same typed error. The naive validation mode skips
// the guard: it exists to diverge so the auditor can catch it.
func (d *Device) coldStart() (restored, alive bool, err error) {
	if d.inj != nil && !d.naiveCommit() && d.framWrites > 0 {
		if d.obs != nil {
			d.emit(obsv.EvUnrecoverable, 0, d.framWrites, 0)
		}
		return false, false, &UnrecoverableError{
			RestoreSeq: 0,
			NewestSeq:  d.maxSeq,
			LostStores: d.framWrites,
		}
	}
	if d.everCommitted {
		d.result.Faults.ColdRestarts++
	}
	d.hasCkpt = false
	d.activeSlot = -1
	d.committedOut = nil
	if d.obs != nil {
		d.emit(obsv.EvColdStart, 0, 0, 0)
	}
	if d.rec != nil {
		d.rec.bootCold(d.cycles, int32(len(d.result.Periods)))
	}
	return false, true, nil
}

// applySlot decodes a validated slot and applies it, first running the
// unrecoverability guard: restoring state older than the newest landed
// commit is only crash-consistent when no FRAM data store happened
// after the target committed (registers and SRAM roll back; FRAM does
// not). A real device detects this by finding a structurally newer
// commit record that fails validation; the simulator uses its
// ground-truth commit counter, which is conservative in the same
// direction. Restoring the newest commit itself is additionally unsafe
// when stores happened since it and the runtime offers no idempotent-
// replay guarantee (Strategy.ReplaySafe). Full-SRAM-snapshot runtimes
// keep all mutable data volatile, so their count delta is zero and
// stale replay stays sound. The guard is active only under fault
// injection, keeping fault-free accounting identical to the
// assumed-atomic simulator.
func (d *Device) applySlot(slot int, rec energy.CommitRecord) (restored, alive bool, err error) {
	ck, err := decodeCheckpoint(d.store.SlotWords(slot)[:rec.Len], d.SRAMFootprint())
	if err != nil {
		return false, false, fmt.Errorf("device: CRC-valid checkpoint failed to decode: %w", err)
	}
	if d.inj != nil && d.framWrites > ck.framWrites && (rec.Seq < d.maxSeq || !d.strat.ReplaySafe()) {
		if d.obs != nil {
			d.emit(obsv.EvUnrecoverable, rec.Seq, d.framWrites-ck.framWrites, 0)
		}
		return false, false, &UnrecoverableError{
			RestoreSeq: rec.Seq,
			NewestSeq:  d.maxSeq,
			LostStores: d.framWrites - ck.framWrites,
		}
	}
	return d.applyDecoded(ck, slot, rec)
}

// applyDecoded charges the modeled restore transfer and reinstates the
// checkpointed state — the same energy sequence the pre-protocol
// simulator used for its assumed-atomic restore.
func (d *Device) applyDecoded(ck *decodedCkpt, slot int, rec energy.CommitRecord) (restored, alive bool, err error) {
	bytes := ck.payload.Bytes()
	cyc := d.transferCycles(bytes, d.cfg.SigmaR)
	ok := d.consume(cyc, energy.ClassMem)
	if ok {
		ok = d.drawExtra(float64(bytes) * d.cfg.OmegaRExtra)
	}
	if !ok {
		return false, false, nil // died restoring; retry next period
	}
	d.core.Restore(ck.core)
	d.core.Halted = false
	if ck.sram != nil {
		if err := d.mem.RestoreSRAMPrefix(ck.sram); err != nil {
			return false, false, err
		}
	}
	d.committedOut = d.store.Out(int(rec.OutLen))
	d.activeSlot = slot
	d.hasCkpt = true
	if d.rec != nil {
		d.rec.bootRestore(d.cycles, int32(len(d.result.Periods)), rec.Seq, ck.core.SenseSeq)
	}
	if d.obs != nil {
		restoreE := float64(cyc)*d.epc[energy.ClassMem] +
			float64(bytes)*d.cfg.OmegaRExtra
		d.emit(obsv.EvRestore, uint64(bytes), uint64(slot), restoreE)
	}
	return true, true, nil
}

// chargeRestore draws the cycles and surcharge of reading bytes from the
// checkpoint area during restore, reporting whether the supply survived.
func (d *Device) chargeRestore(bytes int) bool {
	cyc := d.transferCycles(bytes, d.cfg.SigmaR)
	if !d.consume(cyc, energy.ClassMem) {
		return false
	}
	return d.drawExtra(float64(bytes) * d.cfg.OmegaRExtra)
}
