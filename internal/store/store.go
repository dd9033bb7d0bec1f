package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pmjoin/internal/disk"
)

// Store is a file-backed page store implementing disk.Backend: one real file
// per disk.FileID under a directory, one wire record per page, reads served
// from an mmap view (pread when mapping is unavailable) with measured wall
// latencies.
//
// Write model: records are append-only, each padded to a multiple of 8 bytes
// so every record starts 8-aligned in the file (and in its mapping).
// Overwriting a page appends the new record and repoints the page's offset —
// the old record's bytes leak inside the file, which is fine for the
// short-lived scratch files runtime executors write and keeps Put a single
// positioned write. Scratch pages hold no objects and are skipped (the page
// stays memory-only and Fetch reports disk.ErrNotInBackend), so executors'
// node and spill pages never reach a file.
//
// Concurrency: Put and Fetch are safe for concurrent use — concurrent runs
// and shards fetch while a coordinator appends. Mappings are
// remap-lagging: when a file has grown past the current view the file is
// remapped at its new size and the old view is kept alive until Close, so a
// concurrent reader's slice can never be unmapped under it.
//
// Lifetime: a fetched vector or series page is a view of the mapping (see
// Fetch), so it is valid until Close and never outlives the Store.
type Store struct {
	dir   string
	mu    sync.Mutex
	files map[disk.FileID]*storeFile
}

// storeFile is one FileID's backing file.
type storeFile struct {
	mu      sync.RWMutex
	f       *os.File
	size    int64
	offsets []int64 // record offset per page index; -1 = absent
	cur     mapping // newest mmap view (nil when unmapped / unsupported)
	maps    []mapping
}

// Open creates (or reopens) a store rooted at dir. Page files are named
// f<NNNNNN>.pmj; the directory is created if needed. Reopening an existing
// directory starts from empty state — the store is a mirror of a live Disk,
// not a database; the dataset save/load container (SaveData/LoadData) is the
// durable format.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, files: make(map[disk.FileID]*storeFile)}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// file returns the storeFile for id, creating its backing file when create
// is set.
func (st *Store) file(id disk.FileID, create bool) (*storeFile, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if sf, ok := st.files[id]; ok {
		return sf, nil
	}
	if !create {
		return nil, nil
	}
	path := filepath.Join(st.dir, fmt.Sprintf("f%06d.pmj", int(id)))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	adviseSequentialFD(f)
	sf := &storeFile{f: f}
	st.files[id] = sf
	return sf, nil
}

// Put implements disk.Backend: it encodes the page and appends the record,
// zero-padded to a multiple of 8 bytes, to the page's file, repointing the
// page offset. Scratch pages are skipped (nil error), staying memory-only.
func (st *Store) Put(pg *disk.Page) error {
	if pg.Kind == disk.Scratch {
		return nil
	}
	addr := pg.Addr
	rec, err := EncodePage(pg)
	if err != nil {
		return err
	}
	var zeros [8]byte
	rec = append(rec, zeros[:-len(rec)&7]...)
	if addr.Page < 0 {
		return fmt.Errorf("store: negative page index %v", addr)
	}
	sf, err := st.file(addr.File, true)
	if err != nil {
		return err
	}
	sf.mu.Lock()
	defer sf.mu.Unlock()
	off := sf.size
	if _, err := sf.f.WriteAt(rec, off); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sf.size += int64(len(rec))
	for len(sf.offsets) <= addr.Page {
		sf.offsets = append(sf.offsets, -1)
	}
	sf.offsets[addr.Page] = off
	return nil
}

// Fetch implements disk.Backend: it locates the page's record, reads it
// through the mmap view (pread fallback), validates its header, length and
// CRC, and returns the page together with the measured wall seconds the
// whole physical read took (read + CRC + page build — the real cost of
// serving the page). Pages never Put return disk.ErrNotInBackend.
//
// A vector or series page is built over the record's bytes, not decoded out
// of them: its IDs, starts and flat block alias the read-only mapping, valid
// until Close. Nothing may write into a fetched page's slices; on a mapped
// file such a write faults.
func (st *Store) Fetch(addr disk.PageAddr) (*disk.Page, float64, error) {
	start := time.Now()
	sf, err := st.file(addr.File, false)
	if err != nil {
		return nil, 0, err
	}
	if sf == nil {
		return nil, 0, disk.ErrNotInBackend
	}
	sf.mu.RLock()
	off := int64(-1)
	if addr.Page >= 0 && addr.Page < len(sf.offsets) {
		off = sf.offsets[addr.Page]
	}
	size := sf.size
	sf.mu.RUnlock()
	if off < 0 {
		return nil, 0, disk.ErrNotInBackend
	}
	hdr, err := sf.bytesAt(off, headerSize, size)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %v: %w", addr, err)
	}
	_, plen, _, err := parseHeader(hdr)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %v: %w", addr, err)
	}
	rec, err := sf.bytesAt(off, headerSize+int64(plen), size)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %v: %w", addr, err)
	}
	pg, err := DecodePage(rec)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %v: %w", addr, err)
	}
	pg.Addr = addr
	return pg, time.Since(start).Seconds(), nil
}

// bytesAt returns n bytes at off: a zero-copy slice of the mmap view when it
// covers the range (remapping first if the file grew past the view), else a
// pread into a fresh buffer. size is the file length snapshot the caller read
// under the lock.
func (sf *storeFile) bytesAt(off, n, size int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > size {
		return nil, fmt.Errorf("%w: record extends past end of file", ErrCorruptRecord)
	}
	sf.mu.RLock()
	b := sf.cur.slice(off, n)
	sf.mu.RUnlock()
	if b != nil {
		return b, nil
	}
	sf.remap()
	sf.mu.RLock()
	b = sf.cur.slice(off, n)
	sf.mu.RUnlock()
	if b != nil {
		return b, nil
	}
	// pread fallback: mapping unavailable on this platform or it failed.
	buf := make([]byte, n)
	if _, err := sf.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// remap maps the file at its current size, keeping the previous view alive
// (see Store's concurrency note). A mapping failure is not an error: readers
// fall back to pread.
func (sf *storeFile) remap() {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if sf.size == 0 || int64(len(sf.cur)) >= sf.size {
		return
	}
	m, err := mapFile(sf.f, sf.size)
	if err != nil || m == nil {
		return
	}
	adviseSequential(m)
	sf.maps = append(sf.maps, m)
	sf.cur = m
}

// slice returns the view's [off, off+n) window, or nil when the view does
// not cover it.
func (m mapping) slice(off, n int64) []byte {
	if m == nil || off < 0 || n < 0 || off+n > int64(len(m)) {
		return nil
	}
	return m[off : off+n]
}

// DropCaches makes the next reads as cold as the host allows: every file is
// synced, its mapped pages are discarded (madvise DONTNEED) and the page
// cache is advised to drop it (fadvise DONTNEED). Best-effort — a host or
// filesystem that ignores the advice simply serves warmer "cold" runs; the
// storage benchmark labels the modes either way.
func (st *Store) DropCaches() error {
	st.mu.Lock()
	ids := make([]disk.FileID, 0, len(st.files))
	for id := range st.files {
		ids = append(ids, id)
	}
	files := make([]*storeFile, len(ids))
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		files[i] = st.files[id]
	}
	st.mu.Unlock()
	var first error
	for _, sf := range files {
		sf.mu.Lock()
		if err := sf.f.Sync(); err != nil && first == nil {
			first = fmt.Errorf("store: %w", err)
		}
		for _, m := range sf.maps {
			dropMapped(m)
		}
		dropFileCache(sf.f)
		sf.mu.Unlock()
	}
	return first
}

// Close unmaps every view and closes every file. The store must not be used
// afterwards.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var first error
	for _, sf := range st.files {
		sf.mu.Lock()
		for _, m := range sf.maps {
			if err := unmap(m); err != nil && first == nil {
				first = err
			}
		}
		sf.maps, sf.cur = nil, nil
		if err := sf.f.Close(); err != nil && first == nil {
			first = err
		}
		sf.mu.Unlock()
	}
	st.files = make(map[disk.FileID]*storeFile)
	return first
}

// Pages returns how many page slots file id has (absent slots included);
// 0 for files never Put. Intended for tests.
func (st *Store) Pages(id disk.FileID) int {
	sf, err := st.file(id, false)
	if err != nil || sf == nil {
		return 0
	}
	sf.mu.RLock()
	defer sf.mu.RUnlock()
	return len(sf.offsets)
}

// SaveData writes one raw-dataset payload (RawVectors, RawSeries or
// RawString) as a single wire record at path — the `pmjoin -save` container.
// Any other payload is ErrUnsupportedPayload.
func SaveData(path string, payload any) error {
	rec, err := encodeData(payload)
	if err != nil {
		return err
	}
	return os.WriteFile(path, rec, 0o644)
}

// LoadData reads a SaveData container back. The result is RawVectors,
// RawSeries or RawString; page-kind records are rejected.
func LoadData(path string) (any, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := decodeData(b)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return payload, nil
}
