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
// Write model: a file is written once, front to back. Put appends the
// file's next page as one record, padded to a multiple of 8 bytes so every
// record starts 8-aligned in the file (and in its mapping); a page is never
// overwritten. Only the catalog's pages reach a store: a run's own files
// stay in its disk.Session.
//
// Concurrency: Put and Fetch are safe for concurrent use. Each file is
// mapped once, at its first Fetch, by then normally complete; a record past
// the end of that mapping (one appended later) is read with pread, as on
// hosts without mmap. The mapping lives until Close, so a reader's slice is
// never unmapped under it.
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
	offsets []int64 // record offset per page index
	mapOnce sync.Once
	view    mapping // read-only mmap made at the first Fetch (nil when unavailable)
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
// zero-padded to a multiple of 8 bytes, to the page's file. The page must be
// the file's next one; a page kind the wire format cannot encode (a scratch
// page) is ErrUnsupportedPayload.
func (st *Store) Put(pg *disk.Page) error {
	rec, err := EncodePage(pg)
	if err != nil {
		return err
	}
	var zeros [8]byte
	rec = append(rec, zeros[:-len(rec)&7]...)
	sf, err := st.file(pg.Addr.File, true)
	if err != nil {
		return err
	}
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if pg.Addr.Page != len(sf.offsets) {
		return fmt.Errorf("store: put %v to a file of %d pages: pages are appended once, in order", pg.Addr, len(sf.offsets))
	}
	if _, err := sf.f.WriteAt(rec, sf.size); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sf.offsets = append(sf.offsets, sf.size)
	sf.size += int64(len(rec))
	return nil
}

// Fetch implements disk.Backend: it locates the page's record, reads it
// through the mmap view (pread fallback), validates its header, length and
// CRC, and returns the page together with the measured wall seconds the
// whole physical read took (read + CRC + page build — the real cost of
// serving the page). A page never Put is disk.ErrNoSuchPage.
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
	off, size := int64(-1), int64(0)
	if sf != nil {
		sf.mu.RLock()
		if addr.Page >= 0 && addr.Page < len(sf.offsets) {
			off, size = sf.offsets[addr.Page], sf.size
		}
		sf.mu.RUnlock()
	}
	if off < 0 {
		return nil, 0, fmt.Errorf("store: %w: %v", disk.ErrNoSuchPage, addr)
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

// bytesAt returns n bytes at off: a zero-copy slice of the file's mapping
// when it covers the range (the first call maps the file), else a pread
// into a fresh buffer. size is the file length snapshot the caller read
// under the lock.
func (sf *storeFile) bytesAt(off, n, size int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > size {
		return nil, fmt.Errorf("%w: record extends past end of file", ErrCorruptRecord)
	}
	sf.mapOnce.Do(sf.mapView)
	if b := sf.view.slice(off, n); b != nil {
		return b, nil
	}
	buf := make([]byte, n)
	if _, err := sf.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// mapView maps the file at its current size. A mapping failure is not an
// error: readers fall back to pread.
func (sf *storeFile) mapView() {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	m, err := mapFile(sf.f, sf.size)
	if err != nil || m == nil {
		return
	}
	adviseSequential(m)
	sf.view = m
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
		dropMapped(sf.view)
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
		if err := unmap(sf.view); err != nil && first == nil {
			first = err
		}
		sf.view = nil
		if err := sf.f.Close(); err != nil && first == nil {
			first = err
		}
		sf.mu.Unlock()
	}
	st.files = make(map[disk.FileID]*storeFile)
	return first
}

// Pages returns how many pages file id holds; 0 for files never Put.
// Intended for tests.
func (st *Store) Pages(id disk.FileID) int {
	sf, err := st.file(id, false)
	if err != nil || sf == nil {
		return 0
	}
	sf.mu.RLock()
	defer sf.mu.RUnlock()
	return len(sf.offsets)
}

// SaveData writes one raw dataset as a single wire record at path — the
// `pmjoin -save` container. Data of no dataset kind is ErrUnsupportedPayload.
func SaveData(path string, data Data) error {
	rec, err := encodeData(data)
	if err != nil {
		return err
	}
	return os.WriteFile(path, rec, 0o644)
}

// LoadData reads a SaveData container back; page-kind records are rejected.
func LoadData(path string) (Data, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Data{}, err
	}
	data, err := decodeData(b)
	if err != nil {
		return Data{}, fmt.Errorf("store: %s: %w", path, err)
	}
	return data, nil
}
