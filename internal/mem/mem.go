// Package mem models the memory side of the intermittent device: a
// volatile SRAM region that loses its contents on power failure, a
// nonvolatile FRAM region that survives, and (for the §VI-A case study)
// a mixed-volatility writeback cache that tracks dirty blocks at block
// granularity.
//
// The layout follows the MSP430FR5994 the paper measures on — a small
// SRAM alongside a large FRAM — with EH32's Harvard code space kept
// outside this data address space.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Address-space layout.
const (
	// SRAMBase is the start of volatile memory.
	SRAMBase uint32 = 0x00000
	// FRAMBase is the start of nonvolatile memory.
	FRAMBase uint32 = 0x20000
	// DefaultSRAMSize and DefaultFRAMSize are the region sizes in bytes
	// of the modelled MSP430FR5994: every simulated device and the
	// static analyzer use them.
	DefaultSRAMSize = 8 << 10
	DefaultFRAMSize = 256 << 10
)

// Region classifies an address.
type Region int

const (
	// RegionSRAM is volatile memory.
	RegionSRAM Region = iota
	// RegionFRAM is nonvolatile memory.
	RegionFRAM
	// RegionInvalid is unmapped space.
	RegionInvalid
)

func (r Region) String() string {
	switch r {
	case RegionSRAM:
		return "sram"
	case RegionFRAM:
		return "fram"
	}
	return "invalid"
}

// corruptByte is the fill pattern volatile memory decays to on a power
// failure. A non-zero pattern makes accidental reliance on lost state
// visible instead of silently reading zeros.
const corruptByte = 0xAB

// System is the device's data memory.
type System struct {
	sram []byte
	fram []byte
}

// NewSystem allocates a memory system. Sizes are in bytes and must be
// positive multiples of 4 with SRAM small enough not to overlap FRAM.
func NewSystem(sramSize, framSize int) (*System, error) {
	if sramSize <= 0 || sramSize%4 != 0 {
		return nil, fmt.Errorf("mem: sram size %d must be a positive multiple of 4", sramSize)
	}
	if framSize <= 0 || framSize%4 != 0 {
		return nil, fmt.Errorf("mem: fram size %d must be a positive multiple of 4", framSize)
	}
	if uint32(sramSize) > FRAMBase-SRAMBase {
		return nil, fmt.Errorf("mem: sram size %d overlaps FRAM base %#x", sramSize, FRAMBase)
	}
	return &System{
		sram: make([]byte, sramSize),
		fram: make([]byte, framSize),
	}, nil
}

// Clear zeroes both regions, leaving the system as NewSystem made it.
func (s *System) Clear() {
	clear(s.sram)
	clear(s.fram)
}

// SRAMSize and FRAMSize report the configured sizes in bytes.
func (s *System) SRAMSize() int { return len(s.sram) }
func (s *System) FRAMSize() int { return len(s.fram) }

// Region classifies addr.
func (s *System) Region(addr uint32) Region {
	switch {
	case addr >= SRAMBase && addr < SRAMBase+uint32(len(s.sram)):
		return RegionSRAM
	case addr >= FRAMBase && addr < FRAMBase+uint32(len(s.fram)):
		return RegionFRAM
	default:
		return RegionInvalid
	}
}

// backing returns the slice and offset for an access of size bytes.
func (s *System) backing(addr uint32, size int) ([]byte, int, error) {
	switch s.Region(addr) {
	case RegionSRAM:
		off := int(addr - SRAMBase)
		if off+size > len(s.sram) {
			return nil, 0, fmt.Errorf("mem: access at %#x size %d crosses SRAM end", addr, size)
		}
		return s.sram, off, nil
	case RegionFRAM:
		off := int(addr - FRAMBase)
		if off+size > len(s.fram) {
			return nil, 0, fmt.Errorf("mem: access at %#x size %d crosses FRAM end", addr, size)
		}
		return s.fram, off, nil
	default:
		return nil, 0, fmt.Errorf("mem: unmapped address %#x", addr)
	}
}

// LoadWord reads a 32-bit little-endian word. addr must be 4-aligned.
func (s *System) LoadWord(addr uint32) (uint32, error) {
	if addr%4 != 0 {
		return 0, fmt.Errorf("mem: misaligned word load at %#x", addr)
	}
	b, off, err := s.backing(addr, 4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[off:]), nil
}

// StoreWord writes a 32-bit little-endian word. addr must be 4-aligned.
func (s *System) StoreWord(addr uint32, v uint32) error {
	if addr%4 != 0 {
		return fmt.Errorf("mem: misaligned word store at %#x", addr)
	}
	b, off, err := s.backing(addr, 4)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(b[off:], v)
	return nil
}

// LoadByte reads one byte.
func (s *System) LoadByte(addr uint32) (byte, error) {
	b, off, err := s.backing(addr, 1)
	if err != nil {
		return 0, err
	}
	return b[off], nil
}

// StoreByte writes one byte.
func (s *System) StoreByte(addr uint32, v byte) error {
	b, off, err := s.backing(addr, 1)
	if err != nil {
		return err
	}
	b[off] = v
	return nil
}

// LoseVolatile corrupts all SRAM contents, modelling a power failure.
// FRAM is untouched. The fill doubles a filled prefix with copy, which
// writes the same bytes as a byte loop in a few bulk moves (NewSystem
// never makes an empty SRAM).
func (s *System) LoseVolatile() {
	s.sram[0] = corruptByte
	for n := 1; n < len(s.sram); n *= 2 {
		copy(s.sram[n:], s.sram[:n])
	}
}

// SRAMPrefix returns the first n bytes of volatile memory — the
// footprint a full checkpoint encodes — as a view, not a copy. The
// view aliases live memory: callers must treat it as read-only and
// finish with it before the next store. n must not exceed SRAMSize.
func (s *System) SRAMPrefix(n int) []byte {
	return s.sram[:n:n]
}

// RestoreSRAMPrefix reinstates a partial snapshot covering the first
// len(snap) bytes of SRAM — the footprint-sized checkpoint images of
// full-memory strategies. Memory beyond the prefix keeps its power-loss
// corruption pattern, as on real hardware.
func (s *System) RestoreSRAMPrefix(snap []byte) error {
	if len(snap) > len(s.sram) {
		return fmt.Errorf("mem: snapshot size %d exceeds sram size %d", len(snap), len(s.sram))
	}
	copy(s.sram, snap)
	return nil
}

// SnapshotFRAM copies nonvolatile memory; tests use it to compare
// committed state across runs.
func (s *System) SnapshotFRAM() []byte {
	return append([]byte(nil), s.fram...)
}

// WriteFRAMImage installs an initial data image at the start of FRAM;
// loaders use it to place nonvolatile program data.
func (s *System) WriteFRAMImage(img []byte) error {
	if len(img) > len(s.fram) {
		return fmt.Errorf("mem: image %d bytes exceeds FRAM %d", len(img), len(s.fram))
	}
	copy(s.fram, img)
	return nil
}

// WriteSRAMImage installs an initial data image at the start of SRAM.
func (s *System) WriteSRAMImage(img []byte) error {
	if len(img) > len(s.sram) {
		return fmt.Errorf("mem: image %d bytes exceeds SRAM %d", len(img), len(s.sram))
	}
	copy(s.sram, img)
	return nil
}
