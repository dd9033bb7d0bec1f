// Package disk implements a simulated linear-model disk: a catalog of page
// files (Disk) and per-run accounts of random-seek and sequential-transfer
// cost over it (Session).
//
// The paper ("Joining Massive High-Dimensional Datasets", ICDE 2003) assumes
// a finite buffer and a linear disk model: reading a page that immediately
// follows the previously read page of the same file costs one sequential
// transfer; any other read costs a random seek plus a transfer. All join
// algorithms in this repository are charged through this model, so their
// relative I/O costs reproduce the counts (seeks, transfers) that drive the
// paper's measurements.
package disk

import (
	"errors"
	"fmt"
	"sync"

	"pmjoin/internal/kernel"
)

// Default cost parameters. They model a ca. 2003 commodity drive: a random
// seek (seek + rotational latency) near 10 ms and a sequential page transfer
// near 1 ms for a 4 KB page. Short forward gaps within a file stream through
// the readahead window instead of seeking, and each file tracks its own head
// position (files on separate spindles / OS readahead per open file), which
// is how the paper's measured NLJ behaves: alternating between the two
// dataset files does not pay a seek per page.
const (
	DefaultSeekTime     = 10e-3 // seconds per random seek
	DefaultTransferTime = 1e-3  // seconds per page transfer
	DefaultPageSize     = 4096  // bytes per page
	DefaultReadahead    = 16    // forward gap (pages) served without a seek
)

// FileID identifies a page file: a catalog file of the Disk (0, 1, …) or a
// file of one Session's own (−1, −2, …, see Session.CreateFile).
type FileID int

// PageAddr addresses one page: a file and a page index within it.
type PageAddr struct {
	File FileID
	Page int
}

func (a PageAddr) String() string { return fmt.Sprintf("f%d:p%d", a.File, a.Page) }

// Kind tags what a page holds: one of the paper's three object kinds, or
// nothing (Scratch, the zero kind).
type Kind uint8

const (
	// Scratch pages hold no objects: executors' node and spill pages, whose
	// reads and writes only charge I/O.
	Scratch Kind = iota
	// Vectors pages hold points, one row of Flat each.
	Vectors
	// Series pages hold time-series windows, one row of Flat each.
	Series
	// Strings pages hold string windows and their frequency vectors.
	Strings
)

func (k Kind) String() string {
	if names := [...]string{"scratch", "vector", "series", "string"}; int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Page is the unit of disk transfer. Object i of a page has the global id
// IDs[i]; a window's start offset in its flattened sequence is Starts[i].
// Vector and series pages hold object i as row i of Flat, the block the
// kernels read in place; string pages hold it as Windows[i] with its symbol
// frequency vector Freqs[i]. A page's slices are never modified once the
// page is on a disk: a page served by a file store views its mapping.
type Page struct {
	Addr    PageAddr
	Kind    Kind
	IDs     []int
	Starts  []int           // series and string pages
	Flat    kernel.FlatPage // vector and series pages
	Windows [][]byte        // string pages
	Freqs   [][]int         // string pages
}

// Stats accumulates the I/O activity charged against a Session. Reads
// partition into Seeks + Sequential, and Writes partition into WriteSeeks +
// WriteSequential, so read/write mixes stay explainable side by side.
type Stats struct {
	Reads           int64 // total page reads
	Seeks           int64 // reads that required a random seek
	Sequential      int64 // reads served sequentially after the previous read
	GapPages        int64 // pages streamed over by readahead (charged as transfers)
	Writes          int64 // total page writes
	WriteSeeks      int64 // writes that required a random seek
	WriteSequential int64 // writes served sequentially after the previous access
}

// Add returns the field-wise sum s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:           s.Reads + o.Reads,
		Seeks:           s.Seeks + o.Seeks,
		Sequential:      s.Sequential + o.Sequential,
		GapPages:        s.GapPages + o.GapPages,
		Writes:          s.Writes + o.Writes,
		WriteSeeks:      s.WriteSeeks + o.WriteSeeks,
		WriteSequential: s.WriteSequential + o.WriteSequential,
	}
}

// Sub returns the field-wise difference s - o. It is how per-phase deltas
// are computed from two snapshots of one accumulating counter set.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:           s.Reads - o.Reads,
		Seeks:           s.Seeks - o.Seeks,
		Sequential:      s.Sequential - o.Sequential,
		GapPages:        s.GapPages - o.GapPages,
		Writes:          s.Writes - o.Writes,
		WriteSeeks:      s.WriteSeeks - o.WriteSeeks,
		WriteSequential: s.WriteSequential - o.WriteSequential,
	}
}

// Model holds the linear disk cost parameters.
type Model struct {
	SeekTime     float64 // seconds per random seek
	TransferTime float64 // seconds per page transfer
	PageSize     int     // bytes per page
	// Readahead is the largest forward gap (in pages, within one file)
	// served by streaming instead of seeking; the skipped pages are charged
	// as transfers. Negative disables readahead; 0 means the default.
	Readahead int
}

// DefaultModel returns the default linear disk cost model.
func DefaultModel() Model {
	return Model{
		SeekTime:     DefaultSeekTime,
		TransferTime: DefaultTransferTime,
		PageSize:     DefaultPageSize,
		Readahead:    DefaultReadahead,
	}
}

func (m Model) readahead() int {
	ra := m.Readahead
	switch {
	case ra < 0:
		return 0
	case ra == 0:
		ra = DefaultReadahead
	}
	// Streaming a gap of g pages costs g transfers; never stream when a
	// seek would be cheaper.
	if m.TransferTime > 0 {
		if brk := int(m.SeekTime / m.TransferTime); brk < ra {
			ra = brk
		}
	}
	return ra
}

// Cost converts stats into simulated seconds under the model: every access
// is one transfer (Reads + Writes + streamed GapPages) and the random ones
// (Seeks + WriteSeeks) additionally pay a seek. The sequential counters
// (Sequential, WriteSequential) are the complements of the seek counters
// within Reads and Writes respectively — they carry no extra cost, they
// exist so that metrics tables can explain a mixed workload's seek ratio on
// both the read and the write path.
func (m Model) Cost(s Stats) float64 {
	seeks := s.Seeks + s.WriteSeeks
	transfers := s.Reads + s.Writes + s.GapPages
	return float64(seeks)*m.SeekTime + float64(transfers)*m.TransferTime
}

// Disk is a simulated disk's page catalog: a set of page files and the cost
// model that prices access to them. It charges nothing itself: every page
// read goes through a Session, the run's own I/O account. Its files are
// written once, at ingest (CreateFile, AppendPage); a session reads them and
// writes only files of its own. It is safe for concurrent use.
type Disk struct {
	mu     sync.Mutex
	model  Model
	files  files
	nextID FileID
	// mirror, when non-nil, receives every page appended to the disk so a
	// physical Backend stays in sync with the in-memory catalog (SetMirror).
	mirror Backend
}

// files is a set of page files: the Disk's catalog or a Session's own.
type files map[FileID][]*Page

// page returns the page at addr.
func (fs files) page(addr PageAddr) (*Page, error) {
	pages, ok := fs[addr.File]
	if !ok || addr.Page < 0 || addr.Page >= len(pages) {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchPage, addr)
	}
	return pages[addr.Page], nil
}

// append appends a copy of pg to file f at the next page index and returns
// the stored page (pg.Addr is replaced by its address).
func (fs files) append(f FileID, pg Page) (*Page, error) {
	pages, ok := fs[f]
	if !ok {
		return nil, fmt.Errorf("disk: append to unknown file %d", f)
	}
	pg.Addr = PageAddr{File: f, Page: len(pages)}
	fs[f] = append(pages, &pg)
	return &pg, nil
}

// ErrNoSuchPage is returned when a read addresses a page that does not exist.
var ErrNoSuchPage = errors.New("disk: no such page")

// New creates an empty disk with the given cost model.
func New(model Model) *Disk {
	return &Disk{model: model, files: make(files)}
}

// classify decides whether accessing addr from the head positions in heads is
// a random seek, moving the head and adding any streamed-over pages to
// *gapPages. It is the one head-movement rule; each Session applies it to
// its own heads.
func (m Model) classify(heads map[FileID]int, addr PageAddr, gapPages *int64) bool {
	head, ok := heads[addr.File]
	heads[addr.File] = addr.Page
	if !ok {
		return true // first access to the file
	}
	gap := addr.Page - head - 1
	switch {
	case gap < 0:
		return true // backward or repeated: reposition
	case gap == 0:
		return false // strictly sequential
	case gap <= m.readahead():
		*gapPages += int64(gap)
		return false // streamed through the readahead window
	default:
		return true
	}
}

// Model returns the disk's cost model.
func (d *Disk) Model() Model { return d.model }

// CreateFile allocates a new empty file and returns its id.
func (d *Disk) CreateFile() FileID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextID
	d.nextID++
	d.files[id] = nil
	return id
}

// AppendPage appends a copy of pg to the file, at the address it returns
// (pg.Addr is ignored). Appends model the initial (pre-join)
// materialization of the dataset and are not charged: the paper's costs
// cover the join phase.
func (d *Disk) AppendPage(f FileID, pg Page) (PageAddr, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	stored, err := d.files.append(f, pg)
	if err != nil {
		return PageAddr{}, err
	}
	if d.mirror != nil {
		if err := d.mirror.Put(stored); err != nil {
			return PageAddr{}, err
		}
	}
	return stored.Addr, nil
}

// NumPages returns the number of pages in the file.
func (d *Disk) NumPages(f FileID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.files[f])
}

// peek returns the in-memory page at addr without charging any I/O; the
// caller (a Session) carries any charge.
func (d *Disk) peek(addr PageAddr) (*Page, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.files.page(addr)
}
