package disk

import (
	"errors"
	"sync"
)

// Session is a per-run I/O account over a shared Disk, and the only way to
// read, write or price a page. It sees the Disk's files and pages, and
// charges reads and writes against its own head positions and counters,
// starting from cold heads: a session's I/O account is a pure function of
// its own access sequence, independent of whatever other sessions do
// concurrently. No account outlives its session; a run's Stats and
// Measured are its totals.
//
// Sessions are what make per-join reports deterministic under concurrent
// joins on one System: interleaving two joins cannot perturb either join's
// seek classification, because neither shares head state with the other.
//
// A session optionally serves pages through a physical Backend
// (NewSessionOn). Every read then has two halves, both on the calling
// goroutine, in access order:
//
//   - the logical charge — existence check, seek classification and counter
//     accounting — exactly as without a backend;
//   - the physical fetch — reading real bytes — whose wall time is
//     accumulated into Measured.
//
// Only the logical half feeds Stats/Cost (and hence Reports), so the
// determinism contract is backend-independent by construction.
//
// A Session is safe for concurrent use, though join executors serialize
// their page traffic anyway to keep charge order deterministic.
type Session struct {
	d     *Disk
	mu    sync.Mutex
	heads map[FileID]int
	stats Stats
	// backend, when non-nil, serves pages physically; nil serves the Disk's
	// in-memory pages (the simulator).
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

// fetch performs the physical half of a read: with no backend the in-memory
// page is the result; with one, the page is read from the backend's real
// files, its wall cost accumulated into Measured. A page the backend never
// received (ErrNotInBackend — runtime scratch pages) falls back to memory at
// zero measured cost. Called without holding s.mu.
func (s *Session) fetch(addr PageAddr, memory *Page) (*Page, error) {
	if s.backend == nil {
		return memory, nil
	}
	pg, secs, err := s.backend.Fetch(addr)
	if errors.Is(err, ErrNotInBackend) {
		return memory, nil
	}
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.measured.Reads++
	s.measured.Seconds += secs
	s.mu.Unlock()
	return pg, nil
}

// Read fetches one page, charging the session a seek or a sequential
// transfer per its own head positions; an unknown page is an error and
// charges nothing. With a backend attached, the page comes from the
// backend's files.
func (s *Session) Read(addr PageAddr) (*Page, error) {
	s.mu.Lock()
	pg, err := s.d.peek(addr)
	if err == nil {
		s.charge(addr, false)
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.fetch(addr, pg)
}

// Write stores pg's contents into the existing page at addr, charging like
// a read.
func (s *Session) Write(addr PageAddr, pg Page) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.d.store(addr, pg); err != nil {
		return err
	}
	s.charge(addr, true)
	return nil
}

// Peek returns a page without charging any I/O. It always serves from
// memory, backend or not: peeks model coordinator-side inspection of pages
// the caller already owns, and must not be used on a join's data path.
func (s *Session) Peek(addr PageAddr) (*Page, error) { return s.d.peek(addr) }

// CreateFile allocates a new empty file on the underlying disk.
func (s *Session) CreateFile() FileID { return s.d.CreateFile() }

// AppendPage appends a page to a file on the underlying disk (uncharged,
// like Disk.AppendPage; pair with Write to charge the materialization).
func (s *Session) AppendPage(f FileID, pg Page) (PageAddr, error) {
	return s.d.AppendPage(f, pg)
}

// NumPages returns the number of pages in the file.
func (s *Session) NumPages(f FileID) int { return s.d.NumPages(f) }

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

// Cost returns the session's simulated elapsed I/O time in seconds.
func (s *Session) Cost() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.model.Cost(s.stats)
}
