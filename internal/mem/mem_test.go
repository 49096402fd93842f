package mem

import (
	"bytes"
	"testing"
)

func newSys(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(4096, 65536)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemValidation(t *testing.T) {
	cases := []struct{ sram, fram int }{
		{0, 4096}, {-4, 4096}, {6, 4096},
		{4096, 0}, {4096, -4}, {4096, 6},
		{int(FRAMBase) + 4, 4096},
	}
	for _, c := range cases {
		if _, err := NewSystem(c.sram, c.fram); err == nil {
			t.Errorf("NewSystem(%d, %d) accepted", c.sram, c.fram)
		}
	}
}

func TestWordRoundTrip(t *testing.T) {
	s := newSys(t)
	for _, addr := range []uint32{0, 4, 4092, FRAMBase, FRAMBase + 65532} {
		if err := s.StoreWord(addr, 0xDEADBEEF); err != nil {
			t.Fatalf("store %#x: %v", addr, err)
		}
		v, err := s.LoadWord(addr)
		if err != nil {
			t.Fatalf("load %#x: %v", addr, err)
		}
		if v != 0xDEADBEEF {
			t.Errorf("addr %#x: got %#x", addr, v)
		}
	}
}

func TestByteRoundTrip(t *testing.T) {
	s := newSys(t)
	if err := s.StoreByte(5, 0x7F); err != nil {
		t.Fatal(err)
	}
	b, err := s.LoadByte(5)
	if err != nil || b != 0x7F {
		t.Fatalf("byte round trip: %v %#x", err, b)
	}
}

func TestAccessErrors(t *testing.T) {
	s := newSys(t)
	if _, err := s.LoadWord(2); err == nil {
		t.Error("misaligned load accepted")
	}
	if err := s.StoreWord(2, 0); err == nil {
		t.Error("misaligned store accepted")
	}
	if _, err := s.LoadWord(4096); err == nil {
		t.Error("hole between SRAM and FRAM accepted")
	}
	if _, err := s.LoadWord(FRAMBase + 65536); err == nil {
		t.Error("past FRAM end accepted")
	}
	if _, err := s.LoadByte(0xFFFFFFF0); err == nil {
		t.Error("far unmapped byte accepted")
	}
}

func TestRegionClassification(t *testing.T) {
	s := newSys(t)
	if s.Region(0) != RegionSRAM || s.Region(4095) != RegionSRAM {
		t.Error("SRAM misclassified")
	}
	if s.Region(FRAMBase) != RegionFRAM || s.Region(FRAMBase+65535) != RegionFRAM {
		t.Error("FRAM misclassified")
	}
	if s.Region(4096) != RegionInvalid || s.Region(FRAMBase+65536) != RegionInvalid {
		t.Error("invalid space misclassified")
	}
	if RegionSRAM.String() != "sram" || RegionFRAM.String() != "fram" || RegionInvalid.String() != "invalid" {
		t.Error("region names wrong")
	}
}

func TestLoseVolatile(t *testing.T) {
	s := newSys(t)
	s.StoreWord(0, 0x12345678)
	s.StoreWord(FRAMBase, 0xCAFEBABE)
	s.LoseVolatile()
	v, _ := s.LoadWord(0)
	if v == 0x12345678 {
		t.Error("SRAM survived power loss")
	}
	v, _ = s.LoadWord(FRAMBase)
	if v != 0xCAFEBABE {
		t.Error("FRAM lost on power loss")
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	s := newSys(t)
	snap := s.SnapshotFRAM()
	s.StoreWord(FRAMBase, 7)
	if bytes.Equal(snap[:4], s.SnapshotFRAM()[:4]) {
		t.Error("snapshot aliases live memory")
	}
}

func TestImages(t *testing.T) {
	s := newSys(t)
	if err := s.WriteFRAMImage([]byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	v, _ := s.LoadWord(FRAMBase)
	if v != 0x04030201 {
		t.Errorf("FRAM image word %#x", v)
	}
	if err := s.WriteSRAMImage([]byte{9, 8, 7, 6}); err != nil {
		t.Fatal(err)
	}
	v, _ = s.LoadWord(SRAMBase)
	if v != 0x06070809 {
		t.Errorf("SRAM image word %#x", v)
	}
	if err := s.WriteFRAMImage(make([]byte, s.FRAMSize()+1)); err == nil {
		t.Error("oversized FRAM image accepted")
	}
	if err := s.WriteSRAMImage(make([]byte, s.SRAMSize()+1)); err == nil {
		t.Error("oversized SRAM image accepted")
	}
}

func TestSizes(t *testing.T) {
	s := newSys(t)
	if s.SRAMSize() != 4096 || s.FRAMSize() != 65536 {
		t.Errorf("sizes %d/%d", s.SRAMSize(), s.FRAMSize())
	}
}
