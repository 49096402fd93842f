package energy

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
)

// NVMProfile captures a nonvolatile-memory technology's checkpoint
// characteristics: the bandwidths and per-byte energy surcharges the
// device charges for backups and restores. The presets follow the
// technology discussion in the paper (§VI-A cites STT-RAM writes at
// ~10× read latency; Mementos used Flash, whose writes are slower and
// costlier still).
type NVMProfile struct {
	Name string
	// SigmaB and SigmaR are backup/restore bandwidths in bytes/cycle.
	SigmaB float64
	SigmaR float64
	// OmegaBExtra and OmegaRExtra are per-byte energy surcharges (J/B)
	// beyond the memory-class cycle energy.
	OmegaBExtra float64
	OmegaRExtra float64
}

// FRAM is the MSP430FR5994's ferroelectric memory: symmetric word
// access at two cycles per 4-byte word (§III), no surcharge.
func FRAM() NVMProfile {
	return NVMProfile{Name: "fram", SigmaB: 2, SigmaR: 2}
}

// STTRAM models spin-transfer-torque MRAM: reads as fast as FRAM,
// writes ~10× slower (§VI-A), with a write-energy surcharge from the
// switching current.
func STTRAM() NVMProfile {
	return NVMProfile{
		Name:        "sttram",
		SigmaB:      0.2,
		SigmaR:      2,
		OmegaBExtra: 50e-12, // ~50 pJ/B switching energy
	}
}

// Flash models NOR-flash checkpointing à la Mementos: word-program
// operations are two orders of magnitude slower than reads and
// expensive per byte (erase amortized in).
func Flash() NVMProfile {
	return NVMProfile{
		Name:        "flash",
		SigmaB:      0.02,
		SigmaR:      2,
		OmegaBExtra: 500e-12,
		OmegaRExtra: 5e-12,
	}
}

// NVMProfiles returns the built-in technology presets.
func NVMProfiles() []NVMProfile {
	return []NVMProfile{FRAM(), STTRAM(), Flash()}
}

// Validate checks the profile is physical.
func (n NVMProfile) Validate() error {
	if n.SigmaB <= 0 || n.SigmaR <= 0 {
		return fmt.Errorf("energy: nvm %q bandwidths must be positive", n.Name)
	}
	if n.OmegaBExtra < 0 || n.OmegaRExtra < 0 {
		return fmt.Errorf("energy: nvm %q surcharges must be ≥ 0", n.Name)
	}
	return nil
}

// --- two-slot checkpoint area -------------------------------------------
//
// CheckpointArea models the reserved FRAM region a double-buffered
// checkpoint protocol writes to, at the granularity real FRAM offers: one
// word at a time, with no atomicity beyond the single word. A commit is
// only as atomic as the protocol built on top makes it — the device
// writes a payload slot word by word, then a commit record whose CRC word
// goes last. Power can fail between any two word writes (a torn write),
// and stored words can be corrupted in place, which is exactly what the
// fault injector exploits.

// CommitMagic marks a structurally present commit record.
const CommitMagic uint32 = 0x45484b31 // "EHK1"

// CommitRecordWords is the commit record size in 32-bit words:
// magic, seq lo, seq hi, committed output length, payload length, CRC.
const CommitRecordWords = 6

// CommitRecordBytes is the commit record size charged to the backup and
// restore paths when explicit commit accounting is enabled.
const CommitRecordBytes = CommitRecordWords * 4

// CommitRecord declares one slot's payload committed.
type CommitRecord struct {
	// Seq totally orders commits across both slots; the restore path
	// prefers the valid record with the highest Seq.
	Seq uint64
	// OutLen is the committed length of the output log in words.
	OutLen uint32
	// Len is the committed payload length in words.
	Len uint32
	// CRC guards the payload words and the record fields above.
	CRC uint32
}

// EncodeRecord lays the record out in write order. The CRC word is last
// on purpose: a record interrupted between any two word writes leaves a
// stale CRC that fails validation.
func (r CommitRecord) EncodeRecord() [CommitRecordWords]uint32 {
	return [CommitRecordWords]uint32{
		CommitMagic,
		uint32(r.Seq),
		uint32(r.Seq >> 32),
		r.OutLen,
		r.Len,
		r.CRC,
	}
}

// DecodeRecord parses raw record words; ok is false when the magic is
// absent (an empty or obliterated record).
func DecodeRecord(w [CommitRecordWords]uint32) (CommitRecord, bool) {
	if w[0] != CommitMagic {
		return CommitRecord{}, false
	}
	return CommitRecord{
		Seq:    uint64(w[1]) | uint64(w[2])<<32,
		OutLen: w[3],
		Len:    w[4],
		CRC:    w[5],
	}, true
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcChunk is the fixed buffer ChecksumSlot streams its bytes through.
// It is pooled rather than a stack array because crc32.Update reaches
// the hardware CRC through a function value, which makes any slice it
// is given escape to the heap.
type crcChunk [256]byte

var crcChunks = sync.Pool{New: func() any { return new(crcChunk) }}

// ChecksumSlot computes the CRC a commit record must carry for the given
// payload. The record's own ordering fields are folded in so a payload
// paired with a stale record is rejected too. The CRC covers the
// little-endian bytes of the record fields (magic, seq lo, seq hi,
// output length, payload length) followed by the payload words; they
// are streamed through one pooled chunk, so no call allocates.
func ChecksumSlot(payload []uint32, r CommitRecord) uint32 {
	buf := crcChunks.Get().(*crcChunk)
	var crc uint32
	n := 0
	put := func(v uint32) {
		if n == len(buf) {
			crc = crc32.Update(crc, castagnoli, buf[:])
			n = 0
		}
		binary.LittleEndian.PutUint32(buf[n:], v)
		n += 4
	}
	put(CommitMagic)
	put(uint32(r.Seq))
	put(uint32(r.Seq >> 32))
	put(r.OutLen)
	put(r.Len)
	for _, v := range payload {
		put(v)
	}
	crc = crc32.Update(crc, castagnoli, buf[:n])
	crcChunks.Put(buf)
	return crc
}

// CheckpointArea is the checkpoint region of the device's FRAM: two
// payload slots, their commit records, and an append-only output log.
// All mutation is word-granular.
type CheckpointArea struct {
	slots [2][]uint32
	recs  [2][CommitRecordWords]uint32
	out   []uint32
}

// NewCheckpointArea returns an erased checkpoint area.
func NewCheckpointArea() *CheckpointArea { return &CheckpointArea{} }

// EnsureSlot grows slot i to hold at least n words. Growth models the
// region being sized for the largest checkpoint; existing words keep
// their (possibly stale) contents, as real FRAM would.
func (a *CheckpointArea) EnsureSlot(i, n int) {
	if n > len(a.slots[i]) {
		grown := make([]uint32, n)
		copy(grown, a.slots[i])
		a.slots[i] = grown
	}
}

// WriteSlotWord writes one payload word. It is the unit of atomicity.
func (a *CheckpointArea) WriteSlotWord(i, idx int, w uint32) {
	a.EnsureSlot(i, idx+1)
	a.slots[i][idx] = w
}

// SlotWords exposes slot i's live backing words — the restore path reads
// them and the fault injector corrupts them in place.
func (a *CheckpointArea) SlotWords(i int) []uint32 { return a.slots[i] }

// WriteRecordWord writes one commit-record word.
func (a *CheckpointArea) WriteRecordWord(i, idx int, w uint32) {
	a.recs[i][idx] = w
}

// RecordWords exposes slot i's live record words for in-place corruption.
func (a *CheckpointArea) RecordWords(i int) []uint32 { return a.recs[i][:] }

// Record decodes slot i's commit record.
func (a *CheckpointArea) Record(i int) (CommitRecord, bool) {
	return DecodeRecord(a.recs[i])
}

// Validate reports whether slot i holds a structurally plausible,
// CRC-consistent committed checkpoint.
func (a *CheckpointArea) Validate(i int) bool {
	r, ok := a.Record(i)
	if !ok || int(r.Len) > len(a.slots[i]) {
		return false
	}
	return ChecksumSlot(a.slots[i][:r.Len], r) == r.CRC
}

// NextSeq returns one past the highest sequence number either record
// claims — derived from NVM, so it survives power failures without any
// volatile counter.
func (a *CheckpointArea) NextSeq() uint64 {
	var max uint64
	for i := 0; i < 2; i++ {
		if r, ok := a.Record(i); ok && r.Seq > max {
			max = r.Seq
		}
	}
	return max + 1
}

// WriteOut writes one output-log word at position idx. Words past the
// committed OutLen are scratch until a commit record advances over them.
func (a *CheckpointArea) WriteOut(idx int, w uint32) {
	if idx >= len(a.out) {
		grown := make([]uint32, idx+1)
		copy(grown, a.out)
		a.out = grown
	}
	a.out[idx] = w
}

// Out returns a copy of the first n committed output words.
func (a *CheckpointArea) Out(n int) []uint32 {
	if n <= 0 {
		return nil
	}
	if n > len(a.out) {
		n = len(a.out)
	}
	return append([]uint32(nil), a.out[:n]...)
}
