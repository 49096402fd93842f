package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// CacheFingerprint returns a stable content hash of the trace — name,
// sample period, and the exact bit pattern of every voltage sample — so
// the memoization layer (internal/sweep) can fold a harvester's supply
// into a cell key. Two traces with equal fingerprints drive simulations
// identically; generator parameters (kind, seed) need no separate
// representation because they are fully captured by the samples.
// The hash is computed on the first call and kept: every cell that
// harvests one trace keys it for the price of one hash, which is why a
// Trace must not be modified after construction.
func (t *Trace) CacheFingerprint() string {
	t.fp.once.Do(func() { t.fp.s = t.fingerprint() })
	return t.fp.s
}

// fingerprint hashes the trace. Samples are buffered into 4 KiB blocks
// before hashing; the digest is that of the plain little-endian sample
// stream, which every stored harvested cell key depends on
// (TestCacheFingerprintPinned pins it).
func (t *Trace) fingerprint() string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(t.Name)))
	h.Write(b[:])
	h.Write([]byte(t.Name))
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(t.PeriodS))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(len(t.SamplesV)))
	h.Write(b[:])
	var block [4096]byte
	n := 0
	for _, v := range t.SamplesV {
		binary.LittleEndian.PutUint64(block[n:], math.Float64bits(v))
		if n += 8; n == len(block) {
			h.Write(block[:])
			n = 0
		}
	}
	h.Write(block[:n])
	return "trace:" + hex.EncodeToString(h.Sum(nil))
}
