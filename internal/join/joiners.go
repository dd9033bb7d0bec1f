package join

import (
	"fmt"
	"sync"

	"pmjoin/internal/geom"
	"pmjoin/internal/kernel"
	"pmjoin/internal/seqdist"
)

// ObjectJoiner joins the objects of two page payloads.
//
// JoinPages compares the objects of payload a (a page of the first dataset)
// against those of payload b (second dataset), calling emit for every result
// pair. It returns the number of object-pair comparisons performed and the
// modeled CPU seconds they cost.
type ObjectJoiner interface {
	JoinPages(a, b any, emit func(idA, idB int)) (comparisons int64, cpuSeconds float64)
}

// BatchJoiner is an ObjectJoiner whose JoinPages can be hoisted to
// whole-cluster block evaluation (Exec.JoinCluster) over the flat blocks of
// its pages (flatPage). The contract: batch evaluation of a cluster's marked
// page pairs yields results, comparison counts and modeled CPU cost
// bit-identical to a JoinPages loop over the same pairs in the same order.
type BatchJoiner interface {
	ObjectJoiner
	// BatchKernel reports whether this joiner configuration is batchable
	// and, if so, the threshold the block kernel evaluates. Joiners whose
	// per-pair path carries id-dependent logic (self joins) or no float
	// kernel at all return false.
	BatchKernel() (kernel.Threshold, bool)
}

// flatPage returns a vector or series page payload's flat block and object
// IDs: row i of the block is object ids[i].
func flatPage(payload any) (*kernel.FlatPage, []int) {
	switch p := payload.(type) {
	case *VectorPage:
		return p.flat, p.IDs
	case *SeriesPage:
		return p.flat, p.IDs
	}
	panic(fmt.Sprintf("join: no flat block in a %T payload", payload))
}

// Base modeled CPU costs. Calibrated against the paper's platform (a 400 MHz
// Pentium II): a 2-d Euclidean comparison near 20 ns reproduces Figure 10's
// 44.69 s CPU-join for the ~2.1e9 comparisons of the LBeach×MCounty NLJ.
const (
	compareBaseCost   = 10e-9 // fixed per-pair overhead, seconds
	comparePerDimCost = 5e-9  // per-dimension cost, seconds
	editPerCellCost   = 2e-9  // per banded-DP-cell cost, seconds
)

// VectorPage is the payload of a point/spatial data page: parallel slices of
// object IDs and their vectors, the vectors being the rows of the page's flat
// block. Build one with NewVectorPage or VectorPageOf.
type VectorPage struct {
	IDs  []int
	Vecs []geom.Vector

	flat *kernel.FlatPage
}

// NewVectorPage returns the page whose object ids[i] is row i of f: Vecs are
// views of f's rows and f is the page's flat block, which the kernels read in
// place. The page takes ownership of ids and f; neither may be modified
// afterwards.
func NewVectorPage(ids []int, f *kernel.FlatPage) *VectorPage {
	return &VectorPage{IDs: ids, Vecs: flatRows[geom.Vector](len(ids), f), flat: f}
}

// VectorPageOf returns the page whose object ids[i] is vecs[i], copying the
// vectors into a new flat block (see NewVectorPage). Every vector must have
// the first one's dimensionality.
func VectorPageOf(ids []int, vecs []geom.Vector) *VectorPage {
	return NewVectorPage(ids, flatten(vecs))
}

// flatten copies rows into a new flat block.
func flatten[V ~[]float64](rows []V) *kernel.FlatPage {
	dim := 0
	if len(rows) > 0 {
		dim = len(rows[0])
	}
	f := kernel.NewFlatPage(dim, len(rows))
	for _, row := range rows {
		f.AppendRow(row)
	}
	return f
}

// flatRows returns the rows of f as views of its block, panicking unless f
// holds exactly n rows of f.Dim values.
func flatRows[V ~[]float64](n int, f *kernel.FlatPage) []V {
	if f.N != n || len(f.Data) != f.N*f.Dim {
		panic(fmt.Sprintf("join: flat block of %d rows (%d values, dim %d) for %d objects", f.N, len(f.Data), f.Dim, n))
	}
	rows := make([]V, n)
	for i := range rows {
		rows[i] = f.Row(i)
	}
	return rows
}

// Flat returns the page's points as one contiguous row-major block for the
// kernels: the block the page was built over.
func (p *VectorPage) Flat() *kernel.FlatPage { return p.flat }

// hitsPool recycles the scratch index buffers the batched kernel paths
// append hits into, keeping the hot path allocation-free across page pairs.
var hitsPool = sync.Pool{New: func() any { s := make([]int, 0, 256); return &s }}

// probePage tests every row of page a against the flat block of page b,
// emitting the hits in (row of a, row of b) order — the non-self body of
// VectorJoiner.JoinPages and SeriesJoiner.JoinPages.
func probePage[V ~[]float64](th *kernel.Threshold, rows []V, ids []int, fb *kernel.FlatPage, idsB []int, emit func(int, int)) {
	hits := hitsPool.Get().(*[]int)
	for i, row := range rows {
		*hits = kernel.PagePairWithin(th, row, fb, (*hits)[:0])
		idI := ids[i]
		for _, k := range *hits {
			emit(idI, idsB[k])
		}
	}
	hitsPool.Put(hits)
}

// VectorJoiner joins vector pages under an Lp norm with threshold Eps,
// through internal/kernel's exact threshold tests.
type VectorJoiner struct {
	Norm geom.Norm
	Eps  float64
	// Self skips pairs with idA >= idB (self joins count each pair once).
	Self bool
}

// threshold is the exact kernel form of the join predicate: L2 compares the
// squared distance against fl(eps²), the other norms compare Dist against
// eps.
func (j VectorJoiner) threshold() kernel.Threshold {
	if j.Norm == geom.L2 {
		return kernel.NewThresholdSq(j.Eps)
	}
	return kernel.NewThreshold(j.Norm, j.Eps)
}

// JoinPages implements ObjectJoiner.
func (j VectorJoiner) JoinPages(a, b any, emit func(int, int)) (int64, float64) {
	pa, ok := a.(*VectorPage)
	if !ok {
		panic(fmt.Sprintf("join: VectorJoiner got %T", a))
	}
	pb := b.(*VectorPage)
	var comps int64
	dim := 0
	if len(pa.Vecs) > 0 {
		dim = len(pa.Vecs[0])
	}
	th := j.threshold()
	if j.Self {
		// The id-based skip depends on both pages' IDs, so self joins stay
		// per-point.
		for i, va := range pa.Vecs {
			idI := pa.IDs[i]
			for k, vb := range pb.Vecs {
				if idI >= pb.IDs[k] {
					continue
				}
				comps++
				if th.Within(va, vb) {
					emit(idI, pb.IDs[k])
				}
			}
		}
	} else {
		comps = int64(len(pa.Vecs)) * int64(len(pb.Vecs))
		probePage(&th, pa.Vecs, pa.IDs, pb.Flat(), pb.IDs, emit)
	}
	// The modeled cost charges the full comparison whether or not the kernel
	// abandoned early.
	perPair := compareBaseCost + comparePerDimCost*float64(dim)
	return comps, float64(comps) * perPair
}

// BatchKernel implements BatchJoiner: non-self joins are batchable under the
// JoinPages threshold. Self joins keep the per-point loop (the id-based skip
// needs both pages' IDs).
func (j VectorJoiner) BatchKernel() (kernel.Threshold, bool) {
	if j.Self {
		return kernel.Threshold{}, false
	}
	return j.threshold(), true
}

// SeriesPage is the payload of a time-series data page: a run of consecutive
// subsequence windows of one or more series, the windows being the rows of
// the page's flat block. Build one with NewSeriesPage or SeriesPageOf.
type SeriesPage struct {
	IDs     []int       // global window ids (position order)
	Starts  []int       // absolute start offsets within the flattened data
	Windows [][]float64 // raw windows, each of the join's window length

	flat *kernel.FlatPage
}

// NewSeriesPage returns the page whose window ids[i], starting at starts[i],
// is row i of f (see NewVectorPage).
func NewSeriesPage(ids, starts []int, f *kernel.FlatPage) *SeriesPage {
	if len(starts) != len(ids) {
		panic(fmt.Sprintf("join: %d starts for %d windows", len(starts), len(ids)))
	}
	return &SeriesPage{IDs: ids, Starts: starts, Windows: flatRows[[]float64](len(ids), f), flat: f}
}

// SeriesPageOf returns the page whose window ids[i], starting at starts[i],
// is windows[i], copying the windows into a new flat block (see
// VectorPageOf).
func SeriesPageOf(ids, starts []int, windows [][]float64) *SeriesPage {
	return NewSeriesPage(ids, starts, flatten(windows))
}

// Flat returns the page's windows as one contiguous row-major block for the
// kernels (see VectorPage.Flat).
func (p *SeriesPage) Flat() *kernel.FlatPage { return p.flat }

// SeriesJoiner joins time-series windows under L2 with threshold Eps, through
// internal/kernel's exact squared-L2 test.
type SeriesJoiner struct {
	Eps float64
	// Self skips pairs with idA >= idB.
	Self bool
	// ExcludeOverlap skips self-join pairs whose window starts are closer
	// than this (trivially similar overlapping windows); 0 disables.
	ExcludeOverlap int
}

// JoinPages implements ObjectJoiner.
func (j SeriesJoiner) JoinPages(a, b any, emit func(int, int)) (int64, float64) {
	pa, ok := a.(*SeriesPage)
	if !ok {
		panic(fmt.Sprintf("join: SeriesJoiner got %T", a))
	}
	pb := b.(*SeriesPage)
	var comps int64
	w := 0
	if len(pa.Windows) > 0 {
		w = len(pa.Windows[0])
	}
	th := kernel.NewThresholdSq(j.Eps)
	if j.Self {
		for i, wa := range pa.Windows {
			idI := pa.IDs[i]
			startI := pa.Starts[i]
			for k, wb := range pb.Windows {
				if idI >= pb.IDs[k] {
					continue
				}
				if j.ExcludeOverlap > 0 {
					d := startI - pb.Starts[k]
					if d < 0 {
						d = -d
					}
					if d < j.ExcludeOverlap {
						continue
					}
				}
				comps++
				if th.Within(wa, wb) {
					emit(idI, pb.IDs[k])
				}
			}
		}
	} else {
		comps = int64(len(pa.Windows)) * int64(len(pb.Windows))
		probePage(&th, pa.Windows, pa.IDs, pb.Flat(), pb.IDs, emit)
	}
	perPair := compareBaseCost + comparePerDimCost*float64(w)
	return comps, float64(comps) * perPair
}

// BatchKernel implements BatchJoiner: non-self joins are batchable under the
// squared-L2 threshold. Self joins (id and overlap skips) keep the per-point
// loop.
func (j SeriesJoiner) BatchKernel() (kernel.Threshold, bool) {
	if j.Self {
		return kernel.Threshold{}, false
	}
	return kernel.NewThresholdSq(j.Eps), true
}

// StringPage is the payload of a string data page: a run of consecutive
// subsequence windows with their precomputed frequency vectors.
type StringPage struct {
	IDs     []int
	Starts  []int
	Windows [][]byte
	Freqs   [][]int
}

// StringJoiner joins string windows under edit distance with threshold
// MaxEdit, using the frequency distance as a cheap first filter and the
// banded edit distance only on surviving pairs (the multi-step filtering
// of [9] applied to sequence data).
type StringJoiner struct {
	MaxEdit int
	Self    bool
	// ExcludeOverlap skips self-join pairs whose starts are closer than
	// this; 0 disables.
	ExcludeOverlap int
}

// packedStackCells is the stack capacity of JoinPages' packed frequency
// scratch, which takes alpha+2 cells per window of page b: 256 windows of a
// 4-symbol alphabet, over twice a 4 KB page of 500-symbol windows at
// stride 32.
const packedStackCells = 256 * (4 + 2)

// JoinPages implements ObjectJoiner.
//
// The frequency filter runs on page b's vectors packed component-major:
// for each window of a, one pass per symbol over all of b's windows sums
// the L1 distances, and the frequency distance max(Σ positive, Σ negative
// differences) is then (L1 + |Σ d|)/2, with Σ d the difference of the two
// windows' totals. No step branches on a sign.
func (j StringJoiner) JoinPages(a, b any, emit func(int, int)) (int64, float64) {
	pa, ok := a.(*StringPage)
	if !ok {
		panic(fmt.Sprintf("join: StringJoiner got %T", a))
	}
	pb := b.(*StringPage)
	if len(pa.Windows) == 0 {
		return 0, 0
	}
	var comps, verifs int64
	w := len(pa.Windows[0])
	alpha := len(pa.Freqs[0])
	nb := len(pb.Windows)
	// Components count one symbol of one window, so int32 holds them.
	var stack [packedStackCells]int32
	scratch := stack[:]
	if need := nb * (alpha + 2); need > len(stack) {
		scratch = make([]int32, need)
	}
	cols, totals, l1 := scratch[:alpha*nb], scratch[alpha*nb:(alpha+1)*nb], scratch[(alpha+1)*nb:(alpha+2)*nb]
	for k := range nb {
		f := pb.Freqs[k]
		if len(f) != alpha {
			panic(fmt.Sprintf("join: frequency dimension mismatch %d vs %d", alpha, len(f)))
		}
		for c, v := range f {
			cols[c*nb+k] = int32(v)
			totals[k] += int32(v)
		}
	}
	for i := range pa.Windows {
		clear(l1)
		ti := freqL1(pa.Freqs[i], cols, l1)
		idI := pa.IDs[i]
		startI := pa.Starts[i]
		for k, l1k := range l1 {
			if j.Self {
				if idI >= pb.IDs[k] {
					continue
				}
				if j.ExcludeOverlap > 0 {
					d := startI - pb.Starts[k]
					if d < 0 {
						d = -d
					}
					if d < j.ExcludeOverlap {
						continue
					}
				}
			}
			comps++
			sd := ti - totals[k]
			s := sd >> 31
			if int((l1k+(sd^s)-s)>>1) > j.MaxEdit {
				continue
			}
			verifs++
			if _, ok := seqdist.EditDistanceBounded(pa.Windows[i], pb.Windows[k], j.MaxEdit); ok {
				emit(idI, pb.IDs[k])
			}
		}
	}
	perPair := compareBaseCost + comparePerDimCost*float64(alpha)
	bandCells := float64(2*j.MaxEdit+1) * float64(w)
	cpu := float64(comps)*perPair + float64(verifs)*bandCells*editPerCellCost
	return comps, cpu
}

// freqL1 adds to l1[k], zero on entry, the L1 distance between the
// frequency vector fi and window k of cols, packed component-major
// (component c of window k at cols[c*len(l1)+k]), and returns fi's total.
// Looping over windows inside components keeps the sums in registers; a
// window-at-a-time loop over so few components spills them and runs about
// 1.5× slower, and so does this loop inlined into JoinPages.
//
//go:noinline
func freqL1(fi []int, cols, l1 []int32) (total int32) {
	n := len(l1)
	for c, v := range fi {
		a := int32(v)
		total += a
		col := cols[c*n:][:n]
		for k, b := range col {
			d := a - b
			s := d >> 31
			l1[k] += (d ^ s) - s
		}
	}
	return total
}
