package energy

import "testing"

func TestNVMPresets(t *testing.T) {
	profiles := NVMProfiles()
	if len(profiles) != 3 {
		t.Fatalf("%d presets", len(profiles))
	}
	seen := map[string]bool{}
	for _, p := range profiles {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate %s", p.Name)
		}
		seen[p.Name] = true
	}
	// write-speed ordering: FRAM fastest, Flash slowest
	if !(FRAM().SigmaB > STTRAM().SigmaB && STTRAM().SigmaB > Flash().SigmaB) {
		t.Error("write bandwidth ordering wrong")
	}
	// asymmetry: STT-RAM and Flash read faster than they write
	for _, p := range []NVMProfile{STTRAM(), Flash()} {
		if p.SigmaR <= p.SigmaB {
			t.Errorf("%s: expected read/write asymmetry", p.Name)
		}
	}
}

func TestNVMValidate(t *testing.T) {
	bad := NVMProfile{Name: "x", SigmaB: 0, SigmaR: 1}
	if err := bad.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	bad = NVMProfile{Name: "x", SigmaB: 1, SigmaR: 1, OmegaBExtra: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative surcharge accepted")
	}
}

func TestCommitRecordRoundtrip(t *testing.T) {
	r := CommitRecord{Seq: 1<<40 + 9, OutLen: 17, Len: 321, CRC: 0xdeadbeef}
	got, ok := DecodeRecord(r.EncodeRecord())
	if !ok {
		t.Fatal("record failed to decode")
	}
	if got != r {
		t.Fatalf("roundtrip %+v, want %+v", got, r)
	}
	// The CRC word must be the last one written: tearing just before it
	// leaves a record that cannot claim a different payload.
	enc := r.EncodeRecord()
	if enc[CommitRecordWords-1] != r.CRC {
		t.Fatalf("CRC word at %#x, must be last", enc[CommitRecordWords-1])
	}
}

func TestDecodeRecordRejectsMissingMagic(t *testing.T) {
	var empty [CommitRecordWords]uint32
	if _, ok := DecodeRecord(empty); ok {
		t.Fatal("erased record decoded")
	}
	bad := CommitRecord{Seq: 1}.EncodeRecord()
	bad[0] ^= 1
	if _, ok := DecodeRecord(bad); ok {
		t.Fatal("record with corrupt magic decoded")
	}
}

func TestChecksumSlotBindsRecordFields(t *testing.T) {
	payload := []uint32{1, 2, 3, 4}
	r := CommitRecord{Seq: 5, OutLen: 2, Len: 4}
	crc := ChecksumSlot(payload, r)
	if crc != ChecksumSlot(payload, r) {
		t.Fatal("checksum not deterministic")
	}
	// Any payload or ordering-field change must change the checksum, so a
	// payload paired with a stale or reshuffled record is rejected.
	if crc == ChecksumSlot([]uint32{1, 2, 3, 5}, r) {
		t.Error("payload change not detected")
	}
	for name, mut := range map[string]CommitRecord{
		"seq":    {Seq: 6, OutLen: 2, Len: 4},
		"outlen": {Seq: 5, OutLen: 3, Len: 4},
		"len":    {Seq: 5, OutLen: 2, Len: 3},
	} {
		if crc == ChecksumSlot(payload, mut) {
			t.Errorf("%s change not detected", name)
		}
	}
}

// TestChecksumSlotStreaming pins ChecksumSlot to the values the
// original one-buffer implementation computed, across the boundaries
// of its 256-byte stream chunk (the 20 header bytes plus 59 payload
// words fill exactly one chunk), and checks that no call allocates.
func TestChecksumSlotStreaming(t *testing.T) {
	want := map[int]uint32{
		0:   0xdbf0f342,
		59:  0x8c780413,
		60:  0xd7d1af56,
		61:  0x57705be9,
		123: 0x665b227b,
		124: 0x48b652e6,
		200: 0x6d8dec71,
	}
	for n, crc := range want {
		payload := make([]uint32, n)
		for i := range payload {
			payload[i] = uint32(i)*0x9E3779B9 ^ 0xA5A5A5A5
		}
		r := CommitRecord{Seq: 1<<32 | 7, OutLen: 3, Len: uint32(n)}
		if got := ChecksumSlot(payload, r); got != crc {
			t.Errorf("%d-word payload: checksum %#08x, want %#08x", n, got, crc)
		}
		if allocs := testing.AllocsPerRun(100, func() { ChecksumSlot(payload, r) }); allocs != 0 {
			t.Errorf("%d-word payload: ChecksumSlot allocates %.1f per call, want 0", n, allocs)
		}
	}
}

func TestCheckpointAreaCommitAndValidate(t *testing.T) {
	a := NewCheckpointArea()
	if a.Validate(0) || a.Validate(1) {
		t.Fatal("erased area validated")
	}
	if a.NextSeq() != 1 {
		t.Fatalf("NextSeq on erased area = %d, want 1", a.NextSeq())
	}

	payload := []uint32{10, 20, 30}
	for i, w := range payload {
		a.WriteSlotWord(0, i, w)
	}
	rec := CommitRecord{Seq: a.NextSeq(), OutLen: 0, Len: uint32(len(payload))}
	rec.CRC = ChecksumSlot(payload, rec)
	enc := rec.EncodeRecord()
	// Torn commit record: every prefix short of the CRC word must fail
	// validation — the commit only lands with the final word.
	for n := 0; n < CommitRecordWords; n++ {
		for i := 0; i < n; i++ {
			a.WriteRecordWord(0, i, enc[i])
		}
		if a.Validate(0) {
			t.Fatalf("slot validated with %d/%d record words written", n, CommitRecordWords)
		}
	}
	for i, w := range enc {
		a.WriteRecordWord(0, i, w)
	}
	if !a.Validate(0) {
		t.Fatal("committed slot failed validation")
	}
	if a.NextSeq() != rec.Seq+1 {
		t.Fatalf("NextSeq = %d, want %d", a.NextSeq(), rec.Seq+1)
	}

	// In-place corruption of any payload or record word breaks validation.
	a.SlotWords(0)[1] ^= 1 << 30
	if a.Validate(0) {
		t.Fatal("corrupt payload validated")
	}
	a.SlotWords(0)[1] ^= 1 << 30
	a.RecordWords(0)[4] ^= 1 // Len
	if a.Validate(0) {
		t.Fatal("corrupt record validated")
	}
	a.RecordWords(0)[4] ^= 1
	if !a.Validate(0) {
		t.Fatal("restored slot failed validation")
	}

	// A record claiming more payload than the slot holds is structural
	// garbage, not a checksum question.
	big := rec
	big.Len = uint32(len(a.SlotWords(0)) + 1)
	for i, w := range big.EncodeRecord() {
		a.WriteRecordWord(0, i, w)
	}
	if a.Validate(0) {
		t.Fatal("record overclaiming payload length validated")
	}
}

func TestCheckpointAreaEnsureSlotKeepsContents(t *testing.T) {
	a := NewCheckpointArea()
	a.WriteSlotWord(1, 0, 7)
	a.EnsureSlot(1, 8)
	if got := a.SlotWords(1); len(got) != 8 || got[0] != 7 {
		t.Fatalf("grown slot %v", got)
	}
	a.EnsureSlot(1, 2) // never shrinks
	if len(a.SlotWords(1)) != 8 {
		t.Fatal("EnsureSlot shrank the slot")
	}
}

func TestCheckpointAreaOutLog(t *testing.T) {
	a := NewCheckpointArea()
	if got := a.Out(4); got != nil {
		t.Fatalf("empty log returned %v", got)
	}
	a.WriteOut(0, 100)
	a.WriteOut(1, 101)
	a.WriteOut(2, 102)
	if got := a.Out(2); len(got) != 2 || got[0] != 100 || got[1] != 101 {
		t.Fatalf("Out(2) = %v", got)
	}
	// Requests past the log clamp; negative requests are empty.
	if got := a.Out(10); len(got) != 3 {
		t.Fatalf("Out(10) = %v, want 3 words", got)
	}
	if got := a.Out(-1); got != nil {
		t.Fatalf("Out(-1) = %v", got)
	}
	// The copy is detached from the live log.
	snap := a.Out(3)
	a.WriteOut(0, 999)
	if snap[0] != 100 {
		t.Fatal("Out returned a live alias")
	}
}
