package sweep

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// DiskStore is the persistent tier: a content-addressed store under one
// directory, one file per cell keyed by its hex hash (sharded by the
// first byte so no directory grows unbounded). Writes are crash-safe —
// entries land in a temp file and are renamed into place, so a SIGINT
// mid-sweep can at worst leave an orphaned temp file, never a partial
// entry under a live name. Every load validates a magic header and a
// CRC32 of the payload; anything that fails (truncation, corruption, a
// format from another epoch) is treated as a miss and deleted, to be
// rewritten by the simulation that follows.
type DiskStore struct {
	dir string
}

// diskMagic versions the on-disk framing (independent of CodeVersion,
// which versions the simulation semantics inside the key).
const diskMagic = "EHCAS1\n"

// NewDiskStore opens (creating if needed) the CAS rooted at dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: disk store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: create store dir: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

// path names k's entry file. The ".json" suffix dates from the JSON
// entry format; it is kept so a store written in that format is healed
// in place, each old file overwritten by its rewrite instead of
// orphaned beside it.
func (s *DiskStore) path(k Key) string {
	hex := k.String()
	return filepath.Join(s.dir, hex[:2], hex+".json")
}

// frame wraps an encoded entry for disk: magic, little-endian CRC32
// (Castagnoli) of the payload, payload.
func frame(enc []byte) []byte {
	out := make([]byte, 0, len(diskMagic)+4+len(enc))
	out = append(out, diskMagic...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(enc, castagnoli))
	out = append(out, crc[:]...)
	return append(out, enc...)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// unframe validates and strips the disk framing; any inconsistency is an
// error (the caller turns it into a miss).
func unframe(b []byte) ([]byte, error) {
	if len(b) < len(diskMagic)+4 {
		return nil, fmt.Errorf("sweep: entry truncated (%d bytes)", len(b))
	}
	if string(b[:len(diskMagic)]) != diskMagic {
		return nil, fmt.Errorf("sweep: bad entry magic")
	}
	want := binary.LittleEndian.Uint32(b[len(diskMagic):])
	payload := b[len(diskMagic)+4:]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("sweep: entry CRC mismatch (want %08x, got %08x)", want, got)
	}
	return payload, nil
}

// Get loads an entry; corrupt or unreadable entries are deleted and
// reported as misses so the cell is re-simulated and rewritten.
func (s *DiskStore) Get(k Key) ([]byte, bool) {
	p := s.path(k)
	b, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	payload, err := unframe(b)
	if err != nil {
		os.Remove(p)
		return nil, false
	}
	return payload, true
}

// Put writes an entry atomically: temp file in the final directory,
// fsync'd, renamed over the content-addressed name. Concurrent writers
// of the same key race harmlessly — both temp files carry identical
// content, and rename is atomic.
func (s *DiskStore) Put(k Key, enc []byte) error {
	p := s.path(k)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("sweep: store put: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".tmp-"+k.String()[:8]+"-*")
	if err != nil {
		return fmt.Errorf("sweep: store put: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	framed := frame(enc)
	if _, err := tmp.Write(framed); err != nil {
		tmp.Close()
		return fmt.Errorf("sweep: store put: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("sweep: store put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sweep: store put: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("sweep: store put: %w", err)
	}
	return nil
}

// DiskStats summarizes the persistent tier for store-stats artifacts.
type DiskStats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Stats walks the store and counts live entries (temp files excluded).
func (s *DiskStore) Stats() (DiskStats, error) {
	var st DiskStats
	err := filepath.Walk(s.dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		if strings.HasPrefix(filepath.Base(path), ".tmp-") {
			return nil
		}
		st.Entries++
		st.Bytes += info.Size()
		return nil
	})
	return st, err
}
