package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"ehmodel/internal/device"
)

// richEntry exercises every field of the layout: the float specials a
// JSON codec could not hold, slices empty and full, extras and
// provenance.
func richEntry() *Entry {
	return &Entry{
		Result: &device.Result{
			Strategy:  "timer|taub=3000",
			Program:   "counter",
			Completed: true,
			Periods: []device.PeriodStats{
				{
					SupplyE:        math.Copysign(0, -1),
					HarvestedE:     math.NaN(),
					ProgressCycles: 19876,
					DeadCycles:     1 << 40,
					IdleCycles:     math.MaxUint64,
					ProgressE:      math.Inf(1),
					DeadE:          math.Inf(-1),
					BackupE:        math.SmallestNonzeroFloat64,
					RestoreE:       2.2250738585072009e-308, // largest subnormal
					IdleE:          math.Float64frombits(0x7ff8_dead_beef_0001),
					Backups:        3,
					// nil slices: a period with no backups
				},
				{
					SupplyE:         2.1600000000000002e-07,
					ProgressCycles:  5000,
					BackupCycles:    300,
					RestoreCycles:   120,
					Backups:         2,
					BackupIntervals: []uint64{2500, 0, math.MaxUint64},
					AppBytes:        []int{64, 0, math.MinInt64},
					PayloadBytes:    []int{128, math.MaxInt64},
					ChargeTimeS:     0.125,
				},
			},
			Output:      []uint32{0, 1, math.MaxUint32},
			TotalCycles: 1<<63 + 5,
			TimeS:       1.5e-3,
			Faults: device.FaultReport{
				PowerCuts: 4, InjectedTears: 1, TornBackups: 2, BitFlips: 17,
				CRCRejections: 3, StaleRestores: 2, ForcedStale: 1, ColdRestarts: 1,
			},
		},
		Extras: json.RawMessage(`{"k":1}`),
		Prov:   &StoredProv{Label: "counter τB=3000", ComputeUS: 1234, CreatedUnixMS: -1},
	}
}

// floatBits lists the bit pattern of every float field in r, in layout
// order, so NaN payloads and signed zeros compare exactly.
func floatBits(r *device.Result) []uint64 {
	var out []uint64
	for i := range r.Periods {
		p := &r.Periods[i]
		for _, v := range []float64{p.SupplyE, p.HarvestedE, p.ProgressE, p.DeadE,
			p.BackupE, p.RestoreE, p.IdleE, p.ChargeTimeS} {
			out = append(out, math.Float64bits(v))
		}
	}
	return append(out, math.Float64bits(r.TimeS))
}

// TestEntryEncoding: an entry survives the codec bit for bit — −0, NaN
// (payload included), ±Inf and subnormals, extremes of every integer
// type, extras, provenance — and empty slices come back nil, as a live
// run leaves them. Inputs in any other format are rejected.
func TestEntryEncoding(t *testing.T) {
	ent := richEntry()
	enc := encodeEntry(ent)
	back, err := decodeEntry(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := floatBits(back.Result), floatBits(ent.Result); !equalU64(got, want) {
		t.Fatalf("float bits %x, want %x", got, want)
	}
	if !bytes.Equal(encodeEntry(back), enc) {
		t.Fatal("re-encoding a decoded entry changed its bytes")
	}
	p0, p1 := &back.Result.Periods[0], &back.Result.Periods[1]
	if p0.BackupIntervals != nil || p0.AppBytes != nil || p0.PayloadBytes != nil {
		t.Fatalf("empty slices decoded non-nil: %+v", p0)
	}
	if p0.IdleCycles != math.MaxUint64 || p1.AppBytes[2] != math.MinInt64 ||
		p1.PayloadBytes[1] != math.MaxInt64 || back.Result.TotalCycles != 1<<63+5 ||
		back.Result.Output[2] != math.MaxUint32 || back.Result.Faults != ent.Result.Faults {
		t.Fatalf("integer fields: %+v", back.Result)
	}
	if string(back.Extras) != `{"k":1}` || *back.Prov != *ent.Prov {
		t.Fatalf("extras %q prov %+v", back.Extras, back.Prov)
	}

	// Without extras or provenance, and with an empty result, nothing
	// is invented.
	bare, err := decodeEntry(encodeEntry(&Entry{Result: &device.Result{}}))
	if err != nil {
		t.Fatal(err)
	}
	if bare.Extras != nil || bare.Prov != nil || bare.Result.Periods != nil || bare.Result.Output != nil {
		t.Fatalf("bare entry grew fields: %+v", bare)
	}

	// A decoded entry owns its bytes: the store's copy is not aliased.
	back.Extras[0] = 'X'
	if again, err := decodeEntry(enc); err != nil || string(again.Extras) != `{"k":1}` {
		t.Fatal("decoded extras alias the encoded entry")
	}

	for name, b := range map[string][]byte{
		"json-era": []byte(`{"result":{}}`),
		"garbage":  []byte("garbage"),
		"empty":    nil,
	} {
		if _, err := decodeEntry(b); err == nil {
			t.Errorf("%s input accepted", name)
		}
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// liveEntry is the entry a real cell stores: one simulation's result
// with provenance.
func liveEntry(t testing.TB) *Entry {
	cfg, s := testContent(t, 1, 2000, 10000)
	d, err := device.New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	return &Entry{Result: res, Prov: &StoredProv{Label: "counter", ComputeUS: 900, CreatedUnixMS: 1_700_000_000_000}}
}

// manyBackupsEntry is a long entry of the kind a harvested sweep
// stores: 40 periods of 50 backups each, so the per-backup arrays are
// most of its bytes.
func manyBackupsEntry() *Entry {
	r := &device.Result{Strategy: "timer|taub=3000", Program: "crc", Completed: true,
		TotalCycles: 6_000_000, TimeS: 0.75, Output: []uint32{0xbeef, 7}}
	for i := 0; i < 40; i++ {
		p := device.PeriodStats{SupplyE: 2.2e-7, HarvestedE: 1.9e-7, ProgressCycles: 140_000,
			BackupCycles: 6_000, RestoreCycles: 120, ProgressE: 1.7e-7, BackupE: 1.1e-8,
			RestoreE: 2e-10, Backups: 50, ChargeTimeS: 0.012}
		for j := 0; j < p.Backups; j++ {
			p.BackupIntervals = append(p.BackupIntervals, uint64(2_800+37*j))
			p.AppBytes = append(p.AppBytes, 64+8*(j%9))
			p.PayloadBytes = append(p.PayloadBytes, 136+8*(j%9))
		}
		r.Periods = append(r.Periods, p)
	}
	return &Entry{Result: r, Prov: &StoredProv{Label: "crc τB=3000", ComputeUS: 5_000, CreatedUnixMS: 1_700_000_000_000}}
}

// BenchmarkDecodeEntry: the decode half of a store hit, on an entry
// with many backups.
func BenchmarkDecodeEntry(b *testing.B) {
	enc := encodeEntry(manyBackupsEntry())
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodeEntry(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// hugeLength is a length prefix no input can hold.
var hugeLength = []byte{0xff, 0xff, 0xff, 0xff, 0x0f}

// FuzzDecodeEntry: the decoder is the only guard on a memory-tier
// payload (that tier keeps no checksum), so no input may panic it or
// make it allocate beyond what the input's bytes can describe, and it
// accepts only what encodeEntry writes: an accepted input re-encodes to
// the same bytes and stops being accepted when truncated, extended or
// given another version. The seeds — encoded entries, their
// truncations, oversized length prefixes and a JSON-era entry — replay
// under plain go test.
func FuzzDecodeEntry(f *testing.F) {
	head := append([]byte(entryMagic), entryVersion)
	for _, e := range []*Entry{richEntry(), liveEntry(f), manyBackupsEntry(), {Result: &device.Result{}}} {
		enc := encodeEntry(e)
		f.Add(enc)
		for _, n := range []int{0, len(entryMagic), len(head), len(enc) / 2, len(enc) - 1} {
			f.Add(enc[:n])
		}
		f.Add(append(append([]byte(nil), enc...), 0))
	}
	// Oversized length prefixes for the strategy name, the period count
	// and (after an empty result's fixed fields) the extras.
	f.Add(append(append([]byte(nil), head...), hugeLength...))
	f.Add(append(append([]byte(nil), head...), append([]byte{0, 0, 1}, hugeLength...)...))
	f.Add(append(append([]byte(nil), head...), append(make([]byte, 6+8+8), hugeLength...)...))
	f.Add([]byte(`{"result":{"Strategy":"timer"},"prov":{"label":"x"}}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := decodeEntry(b)
		runtime.ReadMemStats(&after)
		// Every allocation is bounded by the bytes describing it (at
		// most 8 bytes of slice per input byte); the slack covers the
		// fixed structs and allocator bookkeeping.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(b))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(b), grew)
		}
		if err != nil {
			return
		}
		if enc := encodeEntry(e); !bytes.Equal(enc, b) {
			t.Fatalf("accepted input re-encodes differently:\n in %x\nout %x", b, enc)
		}
		for _, n := range []int{len(b) - 1, len(b) / 2} {
			if _, err := decodeEntry(b[:n]); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", n, len(b))
			}
		}
		if _, err := decodeEntry(append(b[:len(b):len(b)], 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
		other := append([]byte(nil), b...)
		other[len(entryMagic)]++
		if _, err := decodeEntry(other); err == nil {
			t.Fatal("unknown version accepted")
		}
	})
}
