package mem

import "fmt"

// Cache models the mixed-volatility cache of §VI-A: a volatile,
// set-associative, writeback cache in front of nonvolatile memory. Its
// distinguishing feature for intermittent computing is that every dirty
// block must be written back to NVM when a backup is taken, and
// dirtiness is tracked at block granularity — so store locality controls
// backup traffic the way load locality controls miss traffic.
type Cache struct {
	blockSize int
	sets      int
	ways      int

	// Slot set*ways+way holds one block. tags is the block number + 1
	// (0 = invalid), lru the slot's last-touch tick.
	tags []uint64
	lru  []uint64
	tick uint64

	// dirty lists the dirty slots in no particular order, and
	// dirtyAt[slot] is the slot's index in dirty plus one (0 = clean).
	// A block turns clean in O(1), so DirtyBlocks and FlushDirty cost
	// O(dirty blocks) rather than O(sets × ways) — a backup every few
	// stores then scans only what those stores dirtied.
	dirty   []int
	dirtyAt []int

	stats CacheStats
}

// CacheStats counts accesses since construction or ResetStats.
type CacheStats struct {
	Loads       uint64
	LoadMisses  uint64
	Stores      uint64
	StoreMisses uint64
	Writebacks  uint64 // dirty blocks written back (evictions + flushes)
}

// NewCache builds a cache. blockSize must be a power of two ≥ 4; sets a
// power of two ≥ 1; ways ≥ 1.
func NewCache(blockSize, sets, ways int) (*Cache, error) {
	if blockSize < 4 || blockSize&(blockSize-1) != 0 {
		return nil, fmt.Errorf("mem: block size %d must be a power of two ≥ 4", blockSize)
	}
	if sets < 1 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("mem: set count %d must be a power of two ≥ 1", sets)
	}
	if ways < 1 {
		return nil, fmt.Errorf("mem: ways %d must be ≥ 1", ways)
	}
	n := sets * ways
	return &Cache{
		blockSize: blockSize, sets: sets, ways: ways,
		tags: make([]uint64, n), lru: make([]uint64, n), dirtyAt: make([]int, n),
	}, nil
}

// BlockSize returns the block size in bytes.
func (c *Cache) BlockSize() int { return c.blockSize }

// Stats returns a copy of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = CacheStats{} }

// Access simulates one load or store at addr. It returns whether the
// access hit and whether a dirty block was evicted (a writeback to NVM).
func (c *Cache) Access(addr uint32, isStore bool) (hit, writeback bool) {
	c.tick++
	block := uint64(addr) / uint64(c.blockSize)
	base := int(block%uint64(c.sets)) * c.ways
	key := block + 1

	if isStore {
		c.stats.Stores++
	} else {
		c.stats.Loads++
	}

	// Hit path.
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == key {
			c.lru[base+w] = c.tick
			if isStore {
				c.markDirty(base + w)
			}
			return true, false
		}
	}

	// Miss: pick the LRU way (empty ways have tick 0 and win).
	if isStore {
		c.stats.StoreMisses++
	} else {
		c.stats.LoadMisses++
	}
	lru := c.lru[base : base+c.ways]
	victim := 0
	for w := 1; w < len(lru); w++ {
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	slot := base + victim
	writeback = c.tags[slot] != 0 && c.dirtyAt[slot] != 0
	if writeback {
		c.stats.Writebacks++
	}
	c.tags[slot] = key
	c.lru[slot] = c.tick
	if isStore {
		c.markDirty(slot)
	} else {
		c.markClean(slot)
	}
	return false, writeback
}

// markDirty adds slot to the dirty list unless it is already there.
func (c *Cache) markDirty(slot int) {
	if c.dirtyAt[slot] == 0 {
		c.dirty = append(c.dirty, slot)
		c.dirtyAt[slot] = len(c.dirty)
	}
}

// markClean removes slot from the dirty list, moving the list's last
// slot into its place.
func (c *Cache) markClean(slot int) {
	i := c.dirtyAt[slot]
	if i == 0 {
		return
	}
	last := c.dirty[len(c.dirty)-1]
	c.dirty[i-1] = last
	c.dirtyAt[last] = i
	c.dirty = c.dirty[:len(c.dirty)-1]
	c.dirtyAt[slot] = 0
}

// DirtyBlocks returns how many blocks are currently dirty — the backup
// payload a mixed-volatility system must write to NVM at a checkpoint.
func (c *Cache) DirtyBlocks() int { return len(c.dirty) }

// DirtyBytes returns the backup payload in bytes (dirty blocks ×
// block size) — the α_B·τ_B quantity of Eq. 4 for cache-based systems.
func (c *Cache) DirtyBytes() int { return c.DirtyBlocks() * c.blockSize }

// FlushDirty marks all dirty blocks clean and returns how many were
// flushed; the device calls it when a backup commits.
func (c *Cache) FlushDirty() int {
	n := len(c.dirty)
	for _, slot := range c.dirty {
		c.dirtyAt[slot] = 0
	}
	c.dirty = c.dirty[:0]
	c.stats.Writebacks += uint64(n)
	return n
}

// Invalidate empties the cache (used on power loss for a volatile cache).
func (c *Cache) Invalidate() {
	c.tick = 0
	clear(c.tags)
	clear(c.lru)
	for _, slot := range c.dirty {
		c.dirtyAt[slot] = 0
	}
	c.dirty = c.dirty[:0]
}
