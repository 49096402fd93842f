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

// TestLoseVolatile: a power loss leaves every SRAM byte at the decay
// pattern and FRAM exactly as it was, for power-of-two and other SRAM
// sizes.
func TestLoseVolatile(t *testing.T) {
	for _, size := range []int{4, 4096, 8 * 1024, 4092, 3000} {
		s, err := NewSystem(size, 4096)
		if err != nil {
			t.Fatal(err)
		}
		s.StoreWord(0, 0x12345678)
		s.StoreWord(uint32(size-4), 0x9ABCDEF0)
		s.StoreWord(FRAMBase, 0xCAFEBABE)
		s.StoreWord(FRAMBase+4092, 0x01020304)
		fram := s.SnapshotFRAM()
		s.LoseVolatile()
		for i, b := range s.SRAMPrefix(size) {
			if b != corruptByte {
				t.Fatalf("size %d: SRAM byte %d = %#x after power loss, want %#x", size, i, b, corruptByte)
			}
		}
		if !bytes.Equal(fram, s.SnapshotFRAM()) {
			t.Errorf("size %d: FRAM changed on power loss", size)
		}
		if v, _ := s.LoadWord(FRAMBase); v != 0xCAFEBABE {
			t.Errorf("size %d: FRAM lost on power loss", size)
		}
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
