package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

func newCache(t *testing.T, block, sets, ways int) *Cache {
	t.Helper()
	c, err := NewCache(block, sets, ways)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCacheValidation(t *testing.T) {
	cases := []struct{ block, sets, ways int }{
		{0, 4, 1}, {3, 4, 1}, {6, 4, 1},
		{32, 0, 1}, {32, 3, 1},
		{32, 4, 0},
	}
	for _, c := range cases {
		if _, err := NewCache(c.block, c.sets, c.ways); err == nil {
			t.Errorf("NewCache(%d,%d,%d) accepted", c.block, c.sets, c.ways)
		}
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := newCache(t, 32, 4, 2)
	if hit, _ := c.Access(0, false); hit {
		t.Error("cold access hit")
	}
	if hit, _ := c.Access(4, false); !hit {
		t.Error("same-block access missed")
	}
	if hit, _ := c.Access(31, false); !hit {
		t.Error("end of block missed")
	}
	if hit, _ := c.Access(32, false); hit {
		t.Error("next block hit cold")
	}
	st := c.Stats()
	if st.Loads != 4 || st.LoadMisses != 2 {
		t.Errorf("stats %+v", st)
	}
}

func TestCacheDirtyTracking(t *testing.T) {
	c := newCache(t, 32, 8, 2)
	c.Access(0, true)
	c.Access(64, true)
	c.Access(128, false)
	if got := c.DirtyBlocks(); got != 2 {
		t.Errorf("dirty blocks = %d, want 2", got)
	}
	if got := c.DirtyBytes(); got != 64 {
		t.Errorf("dirty bytes = %d, want 64", got)
	}
	if n := c.FlushDirty(); n != 2 {
		t.Errorf("flushed %d, want 2", n)
	}
	if c.DirtyBlocks() != 0 {
		t.Error("dirty blocks survive flush")
	}
	// store-to-clean block re-dirties
	c.Access(0, true)
	if c.DirtyBlocks() != 1 {
		t.Error("re-dirty failed")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// direct-mapped-ish: 1 set, 2 ways; three distinct blocks force LRU.
	c := newCache(t, 32, 1, 2)
	c.Access(0, true)            // block 0, dirty
	c.Access(32, false)          // block 1
	c.Access(0, false)           // touch block 0: block 1 becomes LRU
	_, wb := c.Access(64, false) // evicts block 1 (clean)
	if wb {
		t.Error("clean eviction reported writeback")
	}
	// now cache holds block 0 (dirty, MRU from earlier) and block 2
	c.Access(64, false)         // touch block 2
	_, wb = c.Access(96, false) // evicts block 0 (dirty)
	if !wb {
		t.Error("dirty eviction missed writeback")
	}
	if st := c.Stats(); st.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", st.Writebacks)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newCache(t, 32, 4, 2)
	c.Access(0, true)
	c.Invalidate()
	if c.DirtyBlocks() != 0 {
		t.Error("dirty survived invalidate")
	}
	if hit, _ := c.Access(0, false); hit {
		t.Error("hit after invalidate")
	}
}

func TestCacheResetStats(t *testing.T) {
	c := newCache(t, 32, 4, 2)
	c.Access(0, true)
	c.ResetStats()
	if st := c.Stats(); st != (CacheStats{}) {
		t.Errorf("stats after reset: %+v", st)
	}
}

// TestStoreMajorVsLoadMajorTranspose reproduces the §VI-A intuition
// directly on the cache model: for B[j][i] = A[i][j] with row-major
// arrays, iterating in load-major order dirties β_block/β_store times
// more blocks per backup window than store-major order.
func TestStoreMajorVsLoadMajorTranspose(t *testing.T) {
	const (
		n         = 64 // matrix dimension
		wordBytes = 4
		block     = 32
	)
	aBase := uint32(0)
	bBase := uint32(n * n * wordBytes)
	const storesPerBackup = block / wordBytes // backup every β_block/β_store stores

	// run executes the transpose with the given index order, taking a
	// backup (flush of all dirty blocks) every storesPerBackup stores,
	// and returns total bytes written back to NVM.
	run := func(storeMajor bool) int {
		c := newCache(t, block, 64, 4)
		backupBytes, stores := 0, 0
		for i := 0; i < 8; i++ {
			for j := 0; j < n; j++ {
				var la, sa uint32
				if storeMajor {
					la = aBase + uint32((j*n+i)*wordBytes) // strided loads
					sa = bBase + uint32((i*n+j)*wordBytes) // contiguous stores
				} else {
					la = aBase + uint32((i*n+j)*wordBytes) // contiguous loads
					sa = bBase + uint32((j*n+i)*wordBytes) // strided stores
				}
				c.Access(la, false)
				if _, wb := c.Access(sa, true); wb {
					backupBytes += block
				}
				if stores++; stores%storesPerBackup == 0 {
					backupBytes += c.FlushDirty() * block
				}
			}
		}
		return backupBytes
	}

	lmBytes, smBytes := run(false), run(true)
	if lmBytes <= smBytes {
		t.Fatalf("load-major should cause more backup traffic: %d vs %d bytes", lmBytes, smBytes)
	}
	// the paper's inflation factor is β_block/β_store = 8 here
	if ratio := float64(lmBytes) / float64(smBytes); ratio < 4 {
		t.Errorf("backup traffic ratio %.2f, expected near %d", ratio, storesPerBackup)
	}
}

// Property-style randomized check: DirtyBlocks never exceeds capacity and
// FlushDirty returns exactly DirtyBlocks.
func TestCacheDirtyInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := newCache(t, 16, 8, 2)
	for i := 0; i < 10000; i++ {
		c.Access(uint32(r.Intn(1<<14))&^3, r.Intn(2) == 0)
		if d := c.DirtyBlocks(); d > 16 {
			t.Fatalf("dirty blocks %d exceed capacity", d)
		}
	}
	want := c.DirtyBlocks()
	if got := c.FlushDirty(); got != want {
		t.Fatalf("FlushDirty %d != DirtyBlocks %d", got, want)
	}
}

// refCache is the set×way cache model that Cache's flat arrays and
// dirty list replaced, kept as the reference for
// TestCacheMatchesReference: a per-set slice of tags, dirty bits and LRU
// ticks, scanned whole by DirtyBlocks and FlushDirty.
type refCache struct {
	blockSize int
	sets      int
	ways      int

	tags  [][]uint64
	dirty [][]bool
	lru   [][]uint64
	tick  uint64

	stats CacheStats
}

func newRefCache(blockSize, sets, ways int) *refCache {
	c := &refCache{blockSize: blockSize, sets: sets, ways: ways}
	c.tags = make([][]uint64, sets)
	c.dirty = make([][]bool, sets)
	c.lru = make([][]uint64, sets)
	for i := 0; i < sets; i++ {
		c.tags[i] = make([]uint64, ways)
		c.dirty[i] = make([]bool, ways)
		c.lru[i] = make([]uint64, ways)
	}
	return c
}

func (c *refCache) Access(addr uint32, isStore bool) (hit, writeback bool) {
	c.tick++
	block := uint64(addr) / uint64(c.blockSize)
	set := int(block % uint64(c.sets))
	key := block + 1
	if isStore {
		c.stats.Stores++
	} else {
		c.stats.Loads++
	}
	for w := 0; w < c.ways; w++ {
		if c.tags[set][w] == key {
			c.lru[set][w] = c.tick
			if isStore {
				c.dirty[set][w] = true
			}
			return true, false
		}
	}
	if isStore {
		c.stats.StoreMisses++
	} else {
		c.stats.LoadMisses++
	}
	victim := 0
	for w := 1; w < c.ways; w++ {
		if c.lru[set][w] < c.lru[set][victim] {
			victim = w
		}
	}
	writeback = c.tags[set][victim] != 0 && c.dirty[set][victim]
	if writeback {
		c.stats.Writebacks++
	}
	c.tags[set][victim] = key
	c.dirty[set][victim] = isStore
	c.lru[set][victim] = c.tick
	return false, writeback
}

func (c *refCache) DirtyBlocks() int {
	n := 0
	for s := range c.dirty {
		for w := range c.dirty[s] {
			if c.dirty[s][w] {
				n++
			}
		}
	}
	return n
}

func (c *refCache) FlushDirty() int {
	n := 0
	for s := range c.dirty {
		for w := range c.dirty[s] {
			if c.dirty[s][w] {
				c.dirty[s][w] = false
				n++
				c.stats.Writebacks++
			}
		}
	}
	return n
}

func (c *refCache) Invalidate() {
	c.tick = 0
	for s := range c.tags {
		for w := range c.tags[s] {
			c.tags[s][w] = 0
			c.dirty[s][w] = false
			c.lru[s][w] = 0
		}
	}
}

// TestCacheMatchesReference drives Cache and the set×way reference
// model through the same random operation sequences and requires every
// return value and the counters to agree after every operation. The
// addresses span a few times each geometry's capacity, so hits,
// evictions of clean and dirty blocks and re-dirtied slots all occur.
func TestCacheMatchesReference(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{{1, 1}, {1, 4}, {16, 2}, {64, 4}} {
		const block = 16
		r := rand.New(rand.NewSource(int64(g.sets*10 + g.ways)))
		c, ref := newCache(t, block, g.sets, g.ways), newRefCache(block, g.sets, g.ways)
		span := 4 * block * g.sets * g.ways
		for i := 0; i < 20000; i++ {
			var op string
			var got, want [2]int
			switch k := r.Intn(100); {
			case k < 85:
				addr, store := uint32(r.Intn(span)), r.Intn(2) == 0
				op = fmt.Sprintf("Access(%d, %v)", addr, store)
				h, wb := c.Access(addr, store)
				rh, rwb := ref.Access(addr, store)
				got, want = [2]int{b2i(h), b2i(wb)}, [2]int{b2i(rh), b2i(rwb)}
			case k < 92:
				op = "FlushDirty"
				got[0], want[0] = c.FlushDirty(), ref.FlushDirty()
			case k < 97:
				op = "DirtyBlocks"
				got[0], want[0] = c.DirtyBlocks(), ref.DirtyBlocks()
			case k < 99:
				op = "Invalidate"
				c.Invalidate()
				ref.Invalidate()
			default:
				op = "ResetStats"
				c.ResetStats()
				ref.stats = CacheStats{}
			}
			if got != want {
				t.Fatalf("%d×%d op %d %s = %v, reference %v", g.sets, g.ways, i, op, got, want)
			}
			if c.Stats() != ref.stats {
				t.Fatalf("%d×%d op %d %s: stats %+v, reference %+v", g.sets, g.ways, i, op, c.Stats(), ref.stats)
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
