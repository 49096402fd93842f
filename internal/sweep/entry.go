package sweep

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"

	"ehmodel/internal/device"
)

// Entry is one cell's stored outcome: the full simulation Result plus
// any strategy-side extras the cell's Extras hook captured after the
// live run (e.g. Clank's violation counters), kept as the opaque JSON
// the hook produced so cache hits can hand them back without a strategy
// instance. Prov records what the producing simulation cost.
type Entry struct {
	Result *device.Result
	Extras json.RawMessage
	Prov   *StoredProv
}

// entryMagic and entryVersion open every encoded entry. They live in
// the payload itself, not in the disk framing, because the memory tier
// stores payloads bare: an entry in any other format (a JSON-era entry
// starts with '{') fails the check in either tier, reads as a miss, and
// is overwritten by the re-simulation that follows.
const (
	entryMagic   = "EHENT"
	entryVersion = 1
)

// minPeriodBytes is the smallest encoded PeriodStats: eight floats plus
// nine one-byte varints (five cycle counts, Backups, three slice
// lengths). A period count the remaining bytes cannot hold is rejected
// before anything is allocated.
const minPeriodBytes = 8*8 + 9

// encodeEntry serializes an entry in the version-1 binary layout:
//
//	"EHENT" 0x01
//	Result: Strategy, Program (strings), Completed (bool),
//	        Periods (slice of PeriodStats, fields in declaration order),
//	        Output (slice of uvarint), TotalCycles (uvarint), TimeS,
//	        Faults (eight varints in declaration order)
//	Extras (bytes)
//	Prov: presence byte, then Label (string), ComputeUS, CreatedUnixMS
//
// A string, byte run or slice is a uvarint length followed by its
// elements; unsigned integers are minimal uvarints, signed ones minimal
// zig-zag varints, a bool one byte 0 or 1, and every float its
// little-endian math.Float64bits. Every float round-trips bit for bit —
// -0, NaN payloads and ±Inf included — so figures rendered from hits
// are byte-identical to live ones and every result can be stored. A
// zero length decodes to a nil slice, as live runs produce.
func encodeEntry(e *Entry) []byte {
	r := e.Result
	// Size the buffer for typical values up front: the memory tier
	// keeps it, spare capacity included.
	n := 64 + len(r.Strategy) + len(r.Program) + 5*len(r.Output) + len(e.Extras)
	for i := range r.Periods {
		n += 96 + 12*len(r.Periods[i].BackupIntervals)
	}
	b := make([]byte, 0, n)
	b = append(b, entryMagic...)
	b = append(b, entryVersion)
	b = appendString(b, r.Strategy)
	b = appendString(b, r.Program)
	b = appendBool(b, r.Completed)
	b = binary.AppendUvarint(b, uint64(len(r.Periods)))
	for i := range r.Periods {
		p := &r.Periods[i]
		b = appendFloat(b, p.SupplyE)
		b = appendFloat(b, p.HarvestedE)
		b = binary.AppendUvarint(b, p.ProgressCycles)
		b = binary.AppendUvarint(b, p.DeadCycles)
		b = binary.AppendUvarint(b, p.BackupCycles)
		b = binary.AppendUvarint(b, p.RestoreCycles)
		b = binary.AppendUvarint(b, p.IdleCycles)
		b = appendFloat(b, p.ProgressE)
		b = appendFloat(b, p.DeadE)
		b = appendFloat(b, p.BackupE)
		b = appendFloat(b, p.RestoreE)
		b = appendFloat(b, p.IdleE)
		b = binary.AppendVarint(b, int64(p.Backups))
		b = binary.AppendUvarint(b, uint64(len(p.BackupIntervals)))
		for _, v := range p.BackupIntervals {
			b = binary.AppendUvarint(b, v)
		}
		b = appendInts(b, p.AppBytes)
		b = appendInts(b, p.PayloadBytes)
		b = appendFloat(b, p.ChargeTimeS)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Output)))
	for _, v := range r.Output {
		b = binary.AppendUvarint(b, uint64(v))
	}
	b = binary.AppendUvarint(b, r.TotalCycles)
	b = appendFloat(b, r.TimeS)
	f := &r.Faults
	for _, v := range [...]int{f.PowerCuts, f.InjectedTears, f.TornBackups, f.BitFlips,
		f.CRCRejections, f.StaleRestores, f.ForcedStale, f.ColdRestarts} {
		b = binary.AppendVarint(b, int64(v))
	}
	b = binary.AppendUvarint(b, uint64(len(e.Extras)))
	b = append(b, e.Extras...)
	b = appendBool(b, e.Prov != nil)
	if e.Prov != nil {
		b = appendString(b, e.Prov.Label)
		b = binary.AppendVarint(b, e.Prov.ComputeUS)
		b = binary.AppendVarint(b, e.Prov.CreatedUnixMS)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendInts(b []byte, vs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

var errBadEntry = errors.New("sweep: malformed entry")

// decodeEntry parses an encoded entry. It accepts exactly the bytes
// encodeEntry produces: a wrong magic or version, a truncation, a
// non-minimal varint, a bool other than 0 or 1, a value out of its
// field's range or trailing bytes are all errors, so an accepted input
// re-encodes to identical bytes. The memory tier keeps no checksum,
// which makes this the only guard on a payload there; every length is
// checked against the bytes that remain before anything is allocated.
func decodeEntry(b []byte) (*Entry, error) {
	if len(b) < len(entryMagic)+1 || string(b[:len(entryMagic)]) != entryMagic ||
		b[len(entryMagic)] != entryVersion {
		return nil, errBadEntry
	}
	d := decoder{b: b[len(entryMagic)+1:]}
	r := &device.Result{}
	r.Strategy = d.string()
	r.Program = d.string()
	r.Completed = d.bool()
	if n := d.count(minPeriodBytes); n > 0 {
		r.Periods = make([]device.PeriodStats, n)
		for i := range r.Periods {
			p := &r.Periods[i]
			p.SupplyE = d.float()
			p.HarvestedE = d.float()
			p.ProgressCycles = d.uvarint()
			p.DeadCycles = d.uvarint()
			p.BackupCycles = d.uvarint()
			p.RestoreCycles = d.uvarint()
			p.IdleCycles = d.uvarint()
			p.ProgressE = d.float()
			p.DeadE = d.float()
			p.BackupE = d.float()
			p.RestoreE = d.float()
			p.IdleE = d.float()
			p.Backups = d.int()
			p.BackupIntervals = d.uvarints()
			p.AppBytes = d.ints()
			p.PayloadBytes = d.ints()
			p.ChargeTimeS = d.float()
		}
	}
	if n := d.count(1); n > 0 {
		r.Output = make([]uint32, n)
		for i := range r.Output {
			v := d.uvarint()
			if v > math.MaxUint32 {
				d.fail()
			}
			r.Output[i] = uint32(v)
		}
	}
	r.TotalCycles = d.uvarint()
	r.TimeS = d.float()
	f := &r.Faults
	for _, p := range [...]*int{&f.PowerCuts, &f.InjectedTears, &f.TornBackups, &f.BitFlips,
		&f.CRCRejections, &f.StaleRestores, &f.ForcedStale, &f.ColdRestarts} {
		*p = d.int()
	}
	e := &Entry{Result: r}
	if n := d.count(1); n > 0 {
		e.Extras = append(json.RawMessage(nil), d.take(n)...)
	}
	if d.bool() {
		e.Prov = &StoredProv{Label: d.string(), ComputeUS: d.varint(), CreatedUnixMS: d.varint()}
	}
	if d.bad || len(d.b) != 0 {
		return nil, errBadEntry
	}
	return e, nil
}

// decoder reads the entry layout from b. The first malformed field sets
// bad and empties b, so every later read fails fast and yields zeros:
// the parse runs to the end without branching at each field, and
// decodeEntry checks bad once.
type decoder struct {
	b   []byte
	bad bool
}

func (d *decoder) fail() {
	d.bad = true
	d.b = nil
}

// minUvarint decodes the minimal uvarint at the front of b and returns
// it with its length, or a length ≤ 0 when b does not start with one: a
// multi-byte encoding whose last byte is zero carries a redundant high
// group, which encodeEntry never writes.
func minUvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// unzigzag maps a zig-zag encoded uvarint back to its signed value.
func unzigzag(u uint64) int64 {
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *decoder) uvarint() uint64 {
	v, n := minUvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 { return unzigzag(d.uvarint()) }

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail()
		return 0
	}
	return int(v)
}

// count reads a length prefix for elements of at least elemBytes bytes
// each, rejecting one the remaining input cannot hold.
func (d *decoder) count(elemBytes int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/elemBytes) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *decoder) take(n int) []byte {
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) string() string { return string(d.take(d.count(1))) }

func (d *decoder) bool() bool {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.fail()
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// uvarints reads a length-prefixed array of uvarints. The per-backup
// arrays are most of a long entry, so each is decoded in one loop over
// a local slice instead of a method call per element, and the one- and
// two-byte values that make up nearly all of them are decoded inline.
// A two-byte encoding whose second byte is zero is not minimal; it
// falls through to minUvarint, which rejects it.
func (d *decoder) uvarints() []uint64 {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	b := d.b
	for i := range vs {
		if len(b) > 0 && b[0] < 0x80 {
			vs[i], b = uint64(b[0]), b[1:]
			continue
		}
		if len(b) > 1 && b[1] != 0 && b[1] < 0x80 {
			vs[i], b = uint64(b[0]&0x7f)|uint64(b[1])<<7, b[2:]
			continue
		}
		v, k := minUvarint(b)
		if k <= 0 {
			d.fail()
			return nil
		}
		vs[i], b = v, b[k:]
	}
	d.b = b
	return vs
}

// ints reads a length-prefixed array of zig-zag varints, in one loop
// and with the same inline one- and two-byte paths as uvarints.
func (d *decoder) ints() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	vs := make([]int, n)
	b := d.b
	for i := range vs {
		if len(b) > 0 && b[0] < 0x80 {
			vs[i], b = int(unzigzag(uint64(b[0]))), b[1:]
			continue
		}
		if len(b) > 1 && b[1] != 0 && b[1] < 0x80 {
			vs[i], b = int(unzigzag(uint64(b[0]&0x7f)|uint64(b[1])<<7)), b[2:]
			continue
		}
		u, k := minUvarint(b)
		v := unzigzag(u)
		if k <= 0 || int64(int(v)) != v {
			d.fail()
			return nil
		}
		vs[i], b = int(v), b[k:]
	}
	d.b = b
	return vs
}
