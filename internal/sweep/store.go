package sweep

import (
	"container/list"
	"sync"
)

// Store is a content-addressed result store: encoded entries keyed by
// cell hash. Implementations must be safe for concurrent use. Get
// returning ok=false means a miss — including any entry the store could
// not read back intact (corruption is a miss, never an error surfaced to
// the sweep).
type Store interface {
	Get(k Key) ([]byte, bool)
	Put(k Key, enc []byte) error
}

// MemStore is the in-memory tier: a byte-budgeted LRU over encoded
// entries. The zero budget means DefaultMemBudget.
type MemStore struct {
	mu     sync.Mutex
	budget int
	used   int
	order  *list.List // front = most recent; values are *memEntry
	items  map[Key]*list.Element
}

type memEntry struct {
	key Key
	enc []byte
}

// DefaultMemBudget bounds the in-memory tier at 512 MiB of encoded
// entries — small next to the simulations it saves, large enough to
// hold every cell of a full figure set.
const DefaultMemBudget = 512 << 20

// NewMemStore builds an LRU store holding at most budget encoded bytes
// (≤ 0 selects DefaultMemBudget).
func NewMemStore(budget int) *MemStore {
	if budget <= 0 {
		budget = DefaultMemBudget
	}
	return &MemStore{
		budget: budget,
		order:  list.New(),
		items:  make(map[Key]*list.Element),
	}
}

// Get returns the encoded entry and marks it most recently used.
func (s *MemStore) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*memEntry).enc, true
}

// Put inserts or refreshes an entry, evicting from the LRU tail until
// the byte budget holds. An entry larger than the whole budget is
// silently not cached.
func (s *MemStore) Put(k Key, enc []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		old := el.Value.(*memEntry)
		s.used += len(enc) - len(old.enc)
		old.enc = enc
		s.order.MoveToFront(el)
	} else {
		s.items[k] = s.order.PushFront(&memEntry{key: k, enc: enc})
		s.used += len(enc)
	}
	for s.used > s.budget && s.order.Len() > 0 {
		el := s.order.Back()
		me := el.Value.(*memEntry)
		s.order.Remove(el)
		delete(s.items, me.key)
		s.used -= len(me.enc)
	}
	return nil
}

// Len returns the number of cached entries.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// Bytes returns the encoded bytes currently held.
func (s *MemStore) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Tiered layers the in-memory LRU over the on-disk CAS: gets hit memory
// first and promote disk hits; puts write through to both tiers.
type Tiered struct {
	Mem  *MemStore
	Disk *DiskStore
}

// NewTiered builds the standard two-tier store over dir.
func NewTiered(dir string, memBudget int) (*Tiered, error) {
	ds, err := NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	return &Tiered{Mem: NewMemStore(memBudget), Disk: ds}, nil
}

// Get checks memory, then disk (promoting a disk hit into memory).
func (t *Tiered) Get(k Key) ([]byte, bool) {
	if enc, ok := t.Mem.Get(k); ok {
		return enc, true
	}
	enc, ok := t.Disk.Get(k)
	if !ok {
		return nil, false
	}
	t.Mem.Put(k, enc) //nolint:errcheck // MemStore.Put cannot fail
	return enc, true
}

// Put writes through to both tiers; the disk write's error is the
// caller's to count, the memory tier never fails.
func (t *Tiered) Put(k Key, enc []byte) error {
	t.Mem.Put(k, enc) //nolint:errcheck // MemStore.Put cannot fail
	return t.Disk.Put(k, enc)
}
