// Package sweep is the memoizing execution layer between the experiment
// drivers and internal/runner: a sweep is a flat list of cells, each
// one device.Run keyed by a canonical content hash of everything that
// determines its Result — workload image, strategy parameters, supply,
// device configuration, engine, and a code-version stamp. A store-aware
// executor answers keyed cells from a two-tier result store (in-memory
// LRU over an on-disk CAS) and collapses identical in-flight cells with
// singleflight, so repeated and overlapping sweeps only simulate what
// has never been simulated before.
//
// The layer inherits runner's determinism invariant and extends it with
// a second axis: figures are byte-identical at any worker count and any
// cache temperature. That holds because a cell's key covers every input
// of the simulation, results round-trip losslessly through the store
// (the entry codec keeps every float's bits), and cells whose inputs
// cannot be proven hashable — fault injectors, observation recorders,
// strategies without a CacheKey — bypass the store entirely rather than
// risk a stale answer.
package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
)

// CodeVersion is the cache-epoch stamp folded into every cell key.
// Bump it whenever a change anywhere in the simulator could alter any
// Result bit-for-bit (engine fixes, accounting changes, strategy
// semantics): old store entries then miss instead of serving results the
// current code would not produce.
const CodeVersion = "ehmodel-cells-v1"

// Key is a cell's canonical content hash — the address of its Result in
// the store.
type Key [sha256.Size]byte

// String returns the key as lowercase hex (the on-disk entry name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form produced by Key.String.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("sweep: bad key %q: %v", s, err)
	}
	if len(b) != len(k) {
		return k, fmt.Errorf("sweep: bad key %q: want %d bytes, got %d", s, len(k), len(b))
	}
	copy(k[:], b)
	return k, nil
}

// CellKey computes the canonical content hash of one simulation cell, or
// ok=false when the cell must bypass the store: a fault injector or
// observation recorder is attached (their outputs are not part of the
// key), or the strategy does not expose its parameters via
// device.CacheKeyer (or returns an empty key to opt out). A harvester's
// trace enters the key as its CacheFingerprint.
//
// The key covers the defaulted config exactly as device.New resolves it
// (defaults applied, the strategy's CacheSizer block size, the engine),
// so equivalent configs spelled differently hash identically. The
// executor sets the context's engine before it keys a cell.
// Environmental fields — RunTimeout, Interrupt, Observe — are excluded:
// they never change a Result unless they abort the run, and aborted runs
// are never stored.
func CellKey(cfg device.Config, strat device.Strategy) (Key, bool) {
	return cellKey(cfg, strat, CodeVersion)
}

// cellKey is CellKey with the version stamp injectable for tests.
func cellKey(cfg device.Config, strat device.Strategy, version string) (Key, bool) {
	if cfg.Faults != nil || cfg.Record != nil {
		return Key{}, false
	}
	if strat == nil || cfg.Prog == nil {
		return Key{}, false
	}
	ck, ok := strat.(device.CacheKeyer)
	if !ok {
		return Key{}, false
	}
	stratKey := ck.CacheKey()
	if stratKey == "" {
		return Key{}, false
	}
	cfg = cfg.WithDefaults(strat)

	w := newKeyWriter()
	w.str("version", version)
	w.str("strategy", strat.Name())
	w.str("strategy-key", stratKey)
	hashProgram(w, cfg.Prog)

	w.str("engine", cfg.Engine.String())
	w.u64("sram", uint64(cfg.SRAMSize))
	w.u64("fram", uint64(cfg.FRAMSize))

	w.f64("freq", cfg.Power.FreqHz)
	for c := 0; c < energy.NumClasses; c++ {
		w.f64("power", cfg.Power.PowerW[c])
	}

	w.f64("capC", cfg.CapC)
	w.f64("capVMax", cfg.CapVMax)
	w.f64("vOn", cfg.VOn)
	w.f64("vOff", cfg.VOff)

	if cfg.Harvester != nil {
		w.str("harvester", cfg.Harvester.Source.CacheFingerprint())
		w.f64("harvesterR", cfg.Harvester.R)
		w.f64("harvesterEta", cfg.Harvester.Eta)
	}

	w.f64("sigmaB", cfg.SigmaB)
	w.f64("sigmaR", cfg.SigmaR)
	w.f64("omegaB", cfg.OmegaBExtra)
	w.f64("omegaR", cfg.OmegaRExtra)

	w.u64("cacheBlock", uint64(cfg.CacheBlockSize))
	w.u64("cacheSets", uint64(cfg.CacheSets))
	w.u64("cacheWays", uint64(cfg.CacheWays))

	w.u64("maxCycles", cfg.MaxCycles)
	w.u64("maxPeriods", uint64(cfg.MaxPeriods))
	w.bool("livelock", cfg.DetectLivelock)

	var k Key
	w.h.Sum(k[:0])
	return k, true
}

// hashProgram folds the complete workload image into the key: code,
// literal pool, initial memory images, entry point, and the symbol and
// label tables static passes key on (task decomposition reads them via
// the program, so they are simulation inputs, not metadata).
func hashProgram(w *keyWriter, p *asm.Program) {
	w.str("prog", p.Name)
	w.u64("entry", uint64(p.Entry))
	w.u64("ninstr", uint64(len(p.Code)))
	for _, in := range p.Code {
		var buf [20]byte
		binary.LittleEndian.PutUint32(buf[0:], uint32(in.Op))
		binary.LittleEndian.PutUint32(buf[4:], uint32(in.Rd))
		binary.LittleEndian.PutUint32(buf[8:], uint32(in.Rs1))
		binary.LittleEndian.PutUint32(buf[12:], uint32(in.Rs2))
		binary.LittleEndian.PutUint32(buf[16:], uint32(in.Imm))
		w.h.Write(buf[:])
	}
	w.u32s("words", p.Words)
	w.bytes("sramImage", p.SRAMImage)
	w.bytes("framImage", p.FRAMImage)
	hashSymTable(w, "symbols", p.Symbols)
	hashSymTable(w, "labels", p.Labels)
}

func hashSymTable(w *keyWriter, tag string, m map[string]uint32) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	w.u64(tag, uint64(len(names)))
	for _, n := range names {
		w.str(tag, n)
		w.u64(tag, uint64(m[n]))
	}
}

// keyWriter writes tagged, length-prefixed fields into a running hash so
// no two distinct field sequences can collide by concatenation.
type keyWriter struct {
	h   hash.Hash
	buf [8]byte
}

func newKeyWriter() *keyWriter { return &keyWriter{h: sha256.New()} }

func (w *keyWriter) raw(tag string, payload []byte) {
	binary.LittleEndian.PutUint64(w.buf[:], uint64(len(tag)))
	w.h.Write(w.buf[:])
	w.h.Write([]byte(tag))
	binary.LittleEndian.PutUint64(w.buf[:], uint64(len(payload)))
	w.h.Write(w.buf[:])
	w.h.Write(payload)
}

func (w *keyWriter) str(tag, s string) { w.raw(tag, []byte(s)) }

func (w *keyWriter) u64(tag string, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.raw(tag, b[:])
}

// f64 hashes the exact bit pattern, so keys distinguish every float the
// simulation could distinguish (including -0 from +0).
func (w *keyWriter) f64(tag string, v float64) { w.u64(tag, math.Float64bits(v)) }

func (w *keyWriter) bool(tag string, v bool) {
	if v {
		w.u64(tag, 1)
	} else {
		w.u64(tag, 0)
	}
}

func (w *keyWriter) bytes(tag string, b []byte) { w.raw(tag, b) }

func (w *keyWriter) u32s(tag string, vs []uint32) {
	b := make([]byte, 8+4*len(vs))
	binary.LittleEndian.PutUint64(b, uint64(len(vs)))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[8+4*i:], v)
	}
	w.raw(tag, b)
}
