// Package pmjoin is a buffer-aware similarity-join library for massive
// spatial and sequence datasets, reproducing Kahveci, Lang & Singh,
// "Joining Massive High-Dimensional Datasets" (ICDE 2003).
//
// The library joins two datasets under a distance threshold ε while
// minimizing disk I/O. It builds a boolean prediction matrix over the page
// pairs of the datasets using a lower-bounding distance predictor, clusters
// the marked entries into buffer-sized groups (square clustering SC or
// cost-based clustering CC), schedules the clusters to maximize buffer
// reuse, and joins one cluster at a time entirely in memory. Block nested
// loop join (NLJ), prediction-matrix NLJ (pm-NLJ), epsilon grid ordering
// (EGO) and breadth-first R-tree join (BFRJ) are provided as comparators.
//
// Three data kinds are supported, mirroring Table 1 of the paper:
//
//   - Vector data (points, spatial objects, feature vectors), indexed with
//     an STR-packed R-tree, joined under an Lp norm.
//   - Time-series data, indexed with an MR-index over sliding windows,
//     subsequence-joined under L2.
//   - String data, indexed with an MRS-index over sliding windows,
//     subsequence-joined under edit distance with the frequency distance as
//     the lower-bounding predictor.
//
// All I/O runs against a simulated linear-model disk with an LRU buffer, so
// costs are deterministic and hardware independent; see DESIGN.md.
package pmjoin

import (
	"fmt"
	"runtime"
	"sync"

	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/index"
	"pmjoin/internal/join"
	"pmjoin/internal/kernel"
	"pmjoin/internal/mrindex"
	"pmjoin/internal/mrsindex"
	"pmjoin/internal/predmat"
	"pmjoin/internal/rstar"
	"pmjoin/internal/seqdist"
	"pmjoin/internal/sflight"
	"pmjoin/internal/store"
)

// Kind identifies the data kind of a dataset.
type Kind int

const (
	// KindVector is point/spatial/high-dimensional feature data.
	KindVector Kind = iota
	// KindSeries is time-series data joined by subsequence.
	KindSeries
	// KindString is string data joined by subsequence under edit distance.
	KindString
)

// DiskModel is the linear disk cost model of the simulator.
type DiskModel struct {
	SeekSeconds     float64 // cost of one random seek
	TransferSeconds float64 // cost of one sequential page transfer
	PageBytes       int     // page size in bytes
	// ReadaheadPages is the largest forward gap (within one file) served by
	// streaming instead of seeking; skipped pages are charged as transfers
	// and a gap never streams when seeking would be cheaper. 0 means the
	// default (16); negative disables readahead.
	ReadaheadPages int
}

// DefaultDiskModel returns the default model (10 ms seek, 1 ms transfer,
// 4 KB pages).
func DefaultDiskModel() DiskModel {
	return DiskModel{
		SeekSeconds:     disk.DefaultSeekTime,
		TransferSeconds: disk.DefaultTransferTime,
		PageBytes:       disk.DefaultPageSize,
	}
}

// System owns the simulated disk and the datasets materialized on it.
//
// A System is safe for concurrent read-only use: any number of Join,
// JoinContext, Explain and ExplainContext calls may run at once — each
// charges its simulated I/O to a private disk session, so every call's Result
// is identical to what a solo run would produce. Mutating
// calls (AddVectors, AddSeries, AddString) must not overlap with any other
// call.
type System struct {
	d     *disk.Disk
	model DiskModel
	// matrices memoizes prediction matrices: they depend only on the
	// dataset pair, epsilon, and filter depth, so repeated joins (e.g.
	// buffer-size sweeps) reuse them. Construction is index-only and
	// charges no simulated I/O either way. It keeps at most
	// matrixCacheEntries matrices, evicting the least recently used, and
	// builds each key once however many joins ask for it at the same time.
	matrices sflight.Cache[matrixKey, matrixEntry]
	// storeMu guards store, the optional file-backed page store attached by
	// UseFileStore (nil = simulator-only). Once attached it also serves as
	// the disk's write mirror, so later Add* calls land in its files too.
	// A StorageFile join holds the read lock for its whole run (its lease on
	// the store's mappings).
	storeMu sync.RWMutex
	store   *store.Store
}

// matrixKey identifies a prediction matrix. File IDs are never reused and
// datasets are immutable, so a file pair names one dataset pair for the
// System's lifetime. A negative FilterDepth and 0 both build unfiltered.
type matrixKey struct {
	fileA, fileB disk.FileID
	eps          float64
	depth        int
}

func newMatrixKey(a, b *Dataset, opt Options) matrixKey {
	return matrixKey{fileA: a.ds.File, fileB: b.ds.File, eps: opt.Epsilon, depth: max(opt.FilterDepth, 0)}
}

// matrixEntry is a built matrix and its modeled build seconds.
type matrixEntry struct {
	m       *predmat.Matrix
	seconds float64
}

// matrixCacheEntries bounds System.matrices. The landsat_sim matrix
// (5 761 × 5 761 pages, 167 639 marks) holds 2.86 MB of CSR and CSC arrays,
// so a long-lived System that joins at ever new ε keeps at most ~23 MB of
// them.
const matrixCacheEntries = 8

// NewSystem creates a system with the given disk model. Zero-value fields
// fall back to the defaults.
func NewSystem(model DiskModel) *System {
	def := DefaultDiskModel()
	if model.SeekSeconds == 0 {
		model.SeekSeconds = def.SeekSeconds
	}
	if model.TransferSeconds == 0 {
		model.TransferSeconds = def.TransferSeconds
	}
	if model.PageBytes == 0 {
		model.PageBytes = def.PageBytes
	}
	d := disk.New(disk.Model{
		SeekTime:     model.SeekSeconds,
		TransferTime: model.TransferSeconds,
		PageSize:     model.PageBytes,
		Readahead:    model.ReadaheadPages,
	})
	return &System{d: d, model: model, matrices: sflight.Cache[matrixKey, matrixEntry]{Max: matrixCacheEntries}}
}

// New creates a system with the default disk model.
func New() *System { return NewSystem(DefaultDiskModel()) }

// Model returns the system's disk model.
func (s *System) Model() DiskModel { return s.model }

// UseFileStore attaches a file-backed page store rooted at dir: every page
// already materialized on the simulated disk is encoded into the store's
// files, and every page added afterwards is mirrored as it is written. Joins
// run with Options.Storage = StorageFile then serve page payloads from those
// files with measured per-read wall latencies (ExecStats.MeasuredIOWall);
// Report, Pairs and Plan stay bit-identical to the simulator either way.
//
// UseFileStore must not overlap with other calls on the System (it is a
// mutating call, like Add*). Attaching twice is an error; Close the System's
// store first via CloseStore.
func (s *System) UseFileStore(dir string) error {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	if s.store != nil {
		return fmt.Errorf("pmjoin: a file store is already attached")
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	if err := s.d.EachPage(st.Put); err != nil {
		st.Close()
		return fmt.Errorf("pmjoin: seeding file store: %w", err)
	}
	s.d.SetMirror(st)
	s.store = st
	return nil
}

// CloseStore detaches and closes the file store attached by UseFileStore
// (no-op when none is attached). The page payloads a file-backed join fetches
// are views of the store's file mappings, so CloseStore first waits for every
// running StorageFile join to return; joins requesting StorageFile that
// start while it waits, or after it, fail until a store is attached again.
func (s *System) CloseStore() error {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	if s.store == nil {
		return nil
	}
	s.d.SetMirror(nil)
	err := s.store.Close()
	s.store = nil
	return err
}

// DropStoreCaches asks the OS to drop its page-cache copies of the attached
// store's files, so the next file-backed join measures cold reads. No-op
// without an attached store or on platforms without cache-drop advice.
func (s *System) DropStoreCaches() error {
	s.storeMu.RLock()
	defer s.storeMu.RUnlock()
	if s.store == nil {
		return nil
	}
	return s.store.DropCaches()
}

// Dataset is a dataset materialized on the system's disk, ready to join.
type Dataset struct {
	sys  *System
	kind Kind
	ds   join.Dataset

	// vector data
	dim  int
	norm geom.Norm

	// sequence data
	window   int
	scale    float64 // MR-index predictor scale
	features int     // MR-index PAA features

	objects int
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.ds.Name }

// Kind returns the data kind.
func (d *Dataset) Kind() Kind { return d.kind }

// Pages returns the number of data pages on disk.
func (d *Dataset) Pages() int { return d.ds.Pages }

// Objects returns the number of joinable objects (vectors or windows).
func (d *Dataset) Objects() int { return d.objects }

// Window returns the subsequence length for sequence datasets (0 for
// vector data).
func (d *Dataset) Window() int { return d.window }

// VectorOptions configures AddVectors.
type VectorOptions struct {
	// PageBytes overrides the system page size for this dataset (the paper
	// uses 1 KB pages for the 2-d road data and 4 KB elsewhere).
	PageBytes int
	// NormP selects the Lp norm: 1, 2, ...; -1 selects L∞. The zero value
	// means L2.
	NormP int
}

// firstNonFinite returns the index of the first NaN or ±Inf in v, or -1.
// No index order, MBR or distance bound is defined over such a value (a NaN
// compares false with everything, so sorting by it has no answer and a
// MinDist through it never passes "≤ ε"), so ingest refuses it.
func firstNonFinite(v []float64) int {
	for i, x := range v {
		if x-x != 0 { // only NaN and ±Inf are not 0 away from themselves
			return i
		}
	}
	return -1
}

// AddVectors indexes dim-dimensional vectors with an STR-packed R-tree, one
// leaf per page (§5.1), lays the vectors out page-contiguously on the
// simulated disk, and returns the joinable dataset. Object IDs are
// the indices into vecs. Every coordinate must be finite. The load runs on
// GOMAXPROCS workers, and builds the same tree on any number.
func (s *System) AddVectors(name string, vecs [][]float64, opts VectorOptions) (*Dataset, error) {
	if len(vecs) == 0 {
		return nil, fmt.Errorf("pmjoin: dataset %q is empty", name)
	}
	dim := len(vecs[0])
	if dim == 0 {
		return nil, fmt.Errorf("pmjoin: dataset %q has zero-dimensional vectors", name)
	}
	pageBytes := opts.PageBytes
	if pageBytes == 0 {
		pageBytes = s.model.PageBytes
	}
	perPage := pageBytes / (8*dim + 8) // 8 bytes per coordinate + object id
	if perPage < 2 {
		perPage = 2
	}
	// The loader's independent ranges run on one worker a core, the default
	// Options.Parallelism takes; the pool is gone before AddVectors returns.
	cfg := rstar.DefaultConfig(perPage)
	if workers := runtime.GOMAXPROCS(0); workers > 1 {
		pool := join.NewWorkerPool(workers)
		defer pool.Close()
		cfg.Runner = pool
	}
	tree, err := rstar.LoadPoints(dim, cfg, vecs)
	if err != nil {
		return nil, fmt.Errorf("pmjoin: indexing %q: %w", name, err)
	}

	file := s.d.CreateFile()
	for p := range tree.NumPages() {
		ids, rows := tree.Page(p)
		flat := kernel.FlatPage{Dim: dim, N: len(ids), Data: rows}
		if _, err := s.d.AppendPage(file, disk.Page{Kind: disk.Vectors, IDs: ids, Flat: flat}); err != nil {
			return nil, err
		}
	}

	norm := geom.Norm{P: opts.NormP}
	if opts.NormP == 0 {
		norm = geom.L2
	}
	if opts.NormP == -1 { // explicit L∞ request
		norm = geom.LInf
	}
	return s.validated(&Dataset{
		sys:     s,
		kind:    KindVector,
		ds:      join.Dataset{Name: name, File: file, Root: tree.Root(), Pages: tree.NumPages()},
		dim:     dim,
		norm:    norm,
		objects: len(vecs),
	})
}

// SeriesOptions configures AddSeries.
type SeriesOptions struct {
	// Window is the subsequence length w of the subsequence join (required).
	Window int
	// Stride between window starts (default 1).
	Stride int
	// Features is the MR-index PAA dimensionality (default 8).
	Features int
	// PageBytes overrides the system page size.
	PageBytes int
}

// AddSeries indexes the sliding windows of a time series with an MR-index
// and lays the samples out page-contiguously. Window IDs number the windows
// in position order. Every sample must be finite.
func (s *System) AddSeries(name string, series []float64, opts SeriesOptions) (*Dataset, error) {
	if i := firstNonFinite(series); i >= 0 {
		return nil, fmt.Errorf("pmjoin: dataset %q has non-finite sample %d (%g)", name, i, series[i])
	}
	pageBytes := opts.PageBytes
	if pageBytes == 0 {
		pageBytes = s.model.PageBytes
	}
	stride := opts.Stride
	if stride == 0 {
		stride = 1
	}
	cfg := mrindex.Config{
		Window:      opts.Window,
		Stride:      stride,
		Features:    opts.Features,
		PageSamples: pageBytes / 8,
	}
	ix, err := mrindex.Build(series, cfg)
	if err != nil {
		return nil, fmt.Errorf("pmjoin: indexing %q: %w", name, err)
	}
	file := s.d.CreateFile()
	for p := 0; p < ix.NumPages(); p++ {
		ids, starts, windows := ix.PageWindows(p)
		if _, err := s.d.AppendPage(file, disk.Page{Kind: disk.Series, IDs: ids, Starts: starts, Flat: kernel.FlatOf(windows)}); err != nil {
			return nil, err
		}
	}
	return s.validated(&Dataset{
		sys:      s,
		kind:     KindSeries,
		ds:       join.Dataset{Name: name, File: file, Root: ix.Root(), Pages: ix.NumPages()},
		window:   ix.Config().Window,
		scale:    ix.Scale(),
		features: ix.Config().Features,
		objects:  ix.NumWindows(),
	})
}

// StringOptions configures AddString.
type StringOptions struct {
	// Window is the subsequence length w of the subsequence join (required).
	Window int
	// Stride between window starts (default 1).
	Stride int
	// Alphabet lists the symbols (default "ACGT").
	Alphabet string
	// PageBytes overrides the system page size.
	PageBytes int
}

// AddString indexes the sliding windows of a string with an MRS-index and
// lays the characters out page-contiguously. Window IDs number the windows
// in position order.
func (s *System) AddString(name string, seq []byte, opts StringOptions) (*Dataset, error) {
	pageBytes := opts.PageBytes
	if pageBytes == 0 {
		pageBytes = s.model.PageBytes
	}
	stride := opts.Stride
	if stride == 0 {
		stride = 1
	}
	alpha := seqdist.DNA
	if opts.Alphabet != "" {
		var err error
		alpha, err = seqdist.NewAlphabet(opts.Alphabet)
		if err != nil {
			return nil, fmt.Errorf("pmjoin: dataset %q: %w", name, err)
		}
	}
	cfg := mrsindex.Config{
		Window:    opts.Window,
		Stride:    stride,
		PageBytes: pageBytes,
	}
	ix, err := mrsindex.Build(seq, alpha, cfg)
	if err != nil {
		return nil, fmt.Errorf("pmjoin: indexing %q: %w", name, err)
	}
	file := s.d.CreateFile()
	for p := 0; p < ix.NumPages(); p++ {
		ids, starts, windows, freqs := ix.PageWindows(p)
		if _, err := s.d.AppendPage(file, disk.Page{Kind: disk.Strings, IDs: ids, Starts: starts, Windows: windows, Freqs: freqs}); err != nil {
			return nil, err
		}
	}
	return s.validated(&Dataset{
		sys:     s,
		kind:    KindString,
		ds:      join.Dataset{Name: name, File: file, Root: ix.Root(), Pages: ix.NumPages()},
		window:  ix.Config().Window,
		objects: ix.NumWindows(),
	})
}

// validated returns d once it declares as many pages as its file holds
// (join.Dataset.Check). Its index is the loader's own, built to contain its
// children's MBRs and cover every page, so ingest does not walk it again:
// TestIngestedDatasetsValidate runs the full join.Dataset.Validate on the
// datasets of all three Add* calls over hostile inputs.
func (s *System) validated(d *Dataset) (*Dataset, error) {
	if err := d.ds.Check(s.d); err != nil {
		return nil, err
	}
	return d, nil
}

// root exposes the dataset's MBR hierarchy for tests in this package.
func (d *Dataset) root() *index.Node { return d.ds.Root }
