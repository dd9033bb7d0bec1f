package disk

import (
	"fmt"
	"sync"
)

// Session is a per-run I/O account over a shared Disk, and the only way to
// read, write or price a page. It reads the Disk's catalog files, keeps the
// run's own files (CreateFile: EGO's sorted copy, BFRJ's node and spill
// files), and charges reads and writes against its own head positions and
// counters, starting from cold heads: a session's I/O account is a pure
// function of its own access sequence, independent of whatever other
// sessions do concurrently. Nothing outlives the session: a run's Stats and
// Measured are its totals, and its own files go when it does. The catalog is
// read-only to a session.
//
// Sessions are what make per-join reports deterministic under concurrent
// joins on one System: interleaving two joins cannot perturb either join's
// seek classification, because neither shares head state with the other.
//
// A session optionally serves catalog pages through a physical Backend
// (NewSessionOn). Every catalog read then has two halves, both on the
// calling goroutine, in access order:
//
//   - the logical charge — existence check, seek classification and counter
//     accounting — exactly as without a backend;
//   - the physical fetch — reading real bytes — whose wall time is
//     accumulated into Measured.
//
// Only the logical half feeds Stats (and hence Reports), so the determinism
// contract is backend-independent by construction. The session's own files
// are memory pages: reading one charges the same, and fetches nothing.
//
// A Session is safe for concurrent use, though join executors serialize
// their page traffic anyway to keep charge order deterministic.
type Session struct {
	d     *Disk
	mu    sync.Mutex
	heads map[FileID]int
	stats Stats
	// own holds the session's own files, numbered −1, −2, … so that no
	// catalog file shares an ID with one.
	own files
	// backend, when non-nil, serves catalog pages physically; nil serves the
	// Disk's in-memory pages (the simulator).
	backend Backend
	// measured accumulates the physical fetches' wall cost (zero without a
	// backend). Outside the determinism contract.
	measured Measured
	// onSeek, when non-nil, observes every access the session classifies as
	// a random seek (write reports the access direction). It is a tracing
	// hook (see internal/metrics); set it before issuing any I/O.
	onSeek func(addr PageAddr, write bool)
}

// SetOnSeek installs the seek observer. The callback runs on the goroutine
// issuing the I/O while the session lock is held, so it must be cheap and
// must not call back into the session. A nil fn removes the observer.
func (s *Session) SetOnSeek(fn func(addr PageAddr, write bool)) {
	s.mu.Lock()
	s.onSeek = fn
	s.mu.Unlock()
}

// NewSession creates a fresh accounting scope over the disk. The new
// session's heads are cold: its first access to any file is a seek.
func (d *Disk) NewSession() *Session {
	return &Session{d: d, heads: make(map[FileID]int)}
}

// NewSessionOn creates a session whose pages are served through the
// physical backend b (nil behaves exactly like NewSession). The logical
// charges are identical either way; only Measured differs.
func (d *Disk) NewSessionOn(b Backend) *Session {
	s := d.NewSession()
	s.backend = b
	return s
}

// charge classifies an access to an existing page at addr against the
// session's heads and counts it as a read or a write, a seek or a
// sequential access. Callers hold s.mu.
func (s *Session) charge(addr PageAddr, write bool) {
	st := &s.stats
	seek := s.d.model.classify(s.heads, addr, &st.GapPages)
	if seek && s.onSeek != nil {
		s.onSeek(addr, write)
	}
	switch {
	case write && seek:
		st.Writes++
		st.WriteSeeks++
	case write:
		st.Writes++
		st.WriteSequential++
	case seek:
		st.Reads++
		st.Seeks++
	default:
		st.Reads++
		st.Sequential++
	}
}

// page returns the page at addr, the session's own or the catalog's,
// without charging. Callers hold s.mu.
func (s *Session) page(addr PageAddr) (*Page, error) {
	if addr.File < 0 {
		return s.own.page(addr)
	}
	return s.d.peek(addr)
}

// Read fetches one page, charging the session a seek or a sequential
// transfer per its own head positions; an unknown page is an error and
// charges nothing. With a backend attached, a catalog page comes from the
// backend's files, and one the backend lacks is an error.
func (s *Session) Read(addr PageAddr) (*Page, error) {
	s.mu.Lock()
	pg, err := s.page(addr)
	if err == nil {
		s.charge(addr, false)
	}
	s.mu.Unlock()
	if err != nil || addr.File < 0 || s.backend == nil {
		return pg, err
	}
	pg, secs, err := s.backend.Fetch(addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.measured.Reads++
	s.measured.Seconds += secs
	s.mu.Unlock()
	return pg, nil
}

// Write stores pg's contents into the existing page at addr of one of the
// session's own files, charging like a read. A catalog page is read-only to
// a session: writing one is an error.
func (s *Session) Write(addr PageAddr, pg Page) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if addr.File >= 0 {
		return fmt.Errorf("disk: write to catalog page %v", addr)
	}
	dst, err := s.own.page(addr)
	if err != nil {
		return err
	}
	pg.Addr = addr
	*dst = pg
	s.charge(addr, true)
	return nil
}

// Peek returns a page without charging any I/O. It always serves from
// memory, backend or not: peeks model coordinator-side inspection of pages
// the caller already owns, and must not be used on a join's data path.
func (s *Session) Peek(addr PageAddr) (*Page, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.page(addr)
}

// CreateFile allocates a new empty file of the session's own and returns
// its (negative) id. The file lives as long as the session.
func (s *Session) CreateFile() FileID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.own == nil {
		s.own = make(files)
	}
	id := FileID(-1 - len(s.own))
	s.own[id] = nil
	return id
}

// AppendPage appends a copy of pg to one of the session's own files, at the
// address it returns, uncharged (pair it with Write to charge the
// materialization). Appending to a catalog file is an error.
func (s *Session) AppendPage(f FileID, pg Page) (PageAddr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f >= 0 {
		return PageAddr{}, fmt.Errorf("disk: append to catalog file %d", f)
	}
	stored, err := s.own.append(f, pg)
	if err != nil {
		return PageAddr{}, err
	}
	return stored.Addr, nil
}

// NumPages returns the number of pages in one of the session's own files
// (0 for any other file).
func (s *Session) NumPages(f FileID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.own[f])
}

// Stats returns a snapshot of the I/O charged through this session.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Measured returns a snapshot of the physical read activity served through
// the session's backend (zero without one).
func (s *Session) Measured() Measured {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.measured
}
