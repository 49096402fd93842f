// Package strategy implements the backup/restore runtimes the paper
// validates and characterizes, as policies plugged into the device
// simulator:
//
//   - Timer: fixed-interval multi-backup (the Fig. 5 validation setup).
//   - Speculative: a timer that defers the final backup to a
//     low-voltage comparator, trading restore risk for backup count.
//   - Hibernus: single-backup at a low-voltage threshold [Balsamo'15].
//   - Mementos: voltage-gated checkpoints at program sites [Ransford'11].
//   - DINO: task-boundary backups [Lucia'15].
//   - Chain: task-boundary commits of store-queue channel payloads
//     [Colin & Lucia'16].
//   - Alpaca: checkpoint-free task execution with write privatization
//     and atomic commits at statically derived task boundaries
//     [Maeng'17]; the boundaries come from the analyze.Tasks WAR-cut
//     decomposition pass. An alpaca-naive variant with a non-atomic
//     in-place commit exists outside the catalog as the adversarial
//     auditor's known-bad target.
//   - Clank: idempotency-violation checkpoints with read-first/
//     write-first buffers and a watchdog [Hicks'17].
//   - Ratchet: compiler-style WAR-cut checkpointing without hardware
//     buffers [Van Der Woude'16].
//   - NVP: a nonvolatile processor backing up every cycle or at a
//     voltage threshold [Ma'15].
//   - MixedVolatility: the hypothetical store-queue processor of §V-B
//     used to characterize α_B (Fig. 10).
//   - CacheVolatile: a volatile cache over nonvolatile main memory
//     whose write-backs are gated by Clank-style WAR tracking.
//   - SenseCommit (the +sense wrapper): forces a commit after every
//     SENSE so committed inputs cannot be re-observed by a replay.
//
// Strategies that keep mutable data in volatile SRAM (Timer,
// Speculative, Hibernus, Mementos, DINO, Chain, Alpaca,
// MixedVolatility) snapshot SRAM in their checkpoints; Clank, Ratchet,
// NVP and CacheVolatile assume nonvolatile main memory, so workloads
// run under them must place their data in FRAM.
package strategy

import (
	"ehmodel/internal/asm"
	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/isa"
)

// Spec names a runnable strategy configuration: a constructor with
// default parameters and the data segment its memory model requires.
// The catalog is shared by the integration tests, the crash-consistency
// auditor and the CLI so every runtime's restore path is exercised by
// all of them.
type Spec struct {
	Name string
	Seg  asm.Segment
	New  func() device.Strategy
}

// Catalog lists every strategy with its default parameters.
func Catalog() []Spec {
	return []Spec{
		{"timer", asm.SRAM, func() device.Strategy { return NewTimer(1000, 0.1) }},
		{"speculative", asm.SRAM, func() device.Strategy { return NewSpeculative(1000, 0.1) }},
		{"hibernus", asm.SRAM, func() device.Strategy { return NewHibernus() }},
		{"mementos", asm.SRAM, func() device.Strategy { return NewMementos() }},
		{"dino", asm.SRAM, func() device.Strategy { return NewDINO() }},
		{"mixvol", asm.SRAM, func() device.Strategy { return NewMixedVolatility(1000) }},
		{"chain", asm.SRAM, func() device.Strategy { return NewChain() }},
		{"alpaca", asm.SRAM, func() device.Strategy { return NewAlpaca() }},
		{"clank", asm.FRAM, func() device.Strategy { return NewClank() }},
		{"ratchet", asm.FRAM, func() device.Strategy { return NewRatchet() }},
		{"nvp-everycycle", asm.FRAM, func() device.Strategy { return NewNVPEveryCycle() }},
		{"nvp-threshold", asm.FRAM, func() device.Strategy { return NewNVPThreshold() }},
		{"cachevol", asm.FRAM, func() device.Strategy { return NewCacheVolatile() }},
	}
}

// extras are runnable by name but excluded from the catalog — and so
// from the clean-strategy matrices — because they are deliberately
// broken audit targets.
func extras() []Spec {
	return []Spec{
		{"alpaca-naive", asm.SRAM, func() device.Strategy { return NewAlpacaNaive() }},
	}
}

// Lookup finds a catalog entry (or a non-catalog extra, such as the
// known-bad alpaca-naive) by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, true
		}
	}
	for _, s := range extras() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// base provides no-op hook implementations strategies embed.
type base struct{}

func (base) Attach(*device.Device)                                                   {}
func (base) Boot(*device.Device) *device.Payload                                     { return nil }
func (base) PreStep(*device.Device, isa.Instr, device.AccessPreview) *device.Payload { return nil }
func (base) PostStep(*device.Device, cpu.Step) *device.Payload                       { return nil }
func (base) ReplaySafe() bool                                                        { return true }
func (base) Reset()                                                                  {}

// Horizon defaults to 1: embedders keep the exact per-instruction
// PreStep/PostStep protocol unless they override it with a real bound.
func (base) Horizon(*device.Device) uint64 { return 1 }

// trackStore adds the word a store writes to set: the write sets Chain,
// Alpaca and MixedVolatility commit.
func trackStore(set map[uint32]struct{}, acc device.AccessPreview) {
	if acc.Valid && acc.Store {
		set[acc.Addr&^3] = struct{}{}
	}
}

// clearSet empties *set in place, making it on first use: the tracking
// sets reset at every boot and commit, and keep their storage.
func clearSet(set *map[uint32]struct{}) {
	if *set == nil {
		*set = make(map[uint32]struct{})
	}
	clear(*set)
}

// fullPayload is the checkpoint of SRAM-resident systems: architectural
// state plus the program's volatile data footprint.
func fullPayload(d *device.Device) device.Payload {
	return device.Payload{
		ArchBytes: cpu.ArchStateBytes,
		AppBytes:  d.SRAMFootprint(),
		SaveSRAM:  true,
	}
}
