package join

import (
	"fmt"
	"sync"

	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/kernel"
	"pmjoin/internal/seqdist"
)

// ObjectJoiner joins the objects of two pages.
//
// JoinPages compares the objects of page a (a page of the first dataset)
// against those of page b (second dataset), calling emit for every result
// pair. It returns the number of object-pair comparisons performed and the
// modeled CPU seconds they cost.
//
// PairTest returns the test JoinPages applies to one object pair, compiled
// once: a caller that verifies its own candidate pairs (EGO) builds it once
// a join.
type ObjectJoiner interface {
	JoinPages(a, b *disk.Page, emit func(idA, idB int)) (comparisons int64, cpuSeconds float64)
	PairTest() PairTest
}

// PairTest decides whether object i of page a joins object k of page b, and
// returns the modeled CPU seconds of the decision. A self join's skip
// (SelfSkip) is the caller's: a skipped pair is not a comparison.
type PairTest func(a *disk.Page, i int, b *disk.Page, k int) (match bool, cpuSeconds float64)

// BatchJoiner is an ObjectJoiner whose JoinPages can be hoisted to
// whole-cluster block evaluation (Exec.JoinCluster) over the flat blocks of
// its pages (disk.Page.Flat). The contract: batch evaluation of a cluster's
// marked page pairs yields results, comparison counts and modeled CPU cost
// bit-identical to a JoinPages loop over the same pairs in the same order.
type BatchJoiner interface {
	ObjectJoiner
	// BatchKernel reports whether this joiner configuration is batchable
	// and, if so, the threshold the block kernel evaluates. Joiners whose
	// per-pair path carries id-dependent logic (self joins) or no float
	// kernel at all return false.
	BatchKernel() (kernel.Threshold, bool)
}

// Base modeled CPU costs. Calibrated against the paper's platform (a 400 MHz
// Pentium II): a 2-d Euclidean comparison near 20 ns reproduces Figure 10's
// 44.69 s CPU-join for the ~2.1e9 comparisons of the LBeach×MCounty NLJ.
const (
	compareBaseCost   = 10e-9 // fixed per-pair overhead, seconds
	comparePerDimCost = 5e-9  // per-dimension cost, seconds
	editPerCellCost   = 2e-9  // per banded-DP-cell cost, seconds
)

// pairCost is the modeled CPU seconds of one object-pair comparison over dim
// coordinates (frequency components, for strings).
func pairCost(dim int) float64 {
	return compareBaseCost + comparePerDimCost*float64(dim)
}

// bandCells is the number of banded-DP cells one edit-distance verification
// of windows of length w fills under the bound maxEdit.
func bandCells(maxEdit, w int) float64 {
	return float64(2*maxEdit+1) * float64(w)
}

// SelfSkip reports whether a self join skips object i of page a against
// object k of page b: every pair is joined once, from its lower id, and
// windows whose starts are closer than exclude are trivially similar
// overlaps (exclude 0 disables that test).
func SelfSkip(a *disk.Page, i int, b *disk.Page, k, exclude int) bool {
	if a.IDs[i] >= b.IDs[k] {
		return true
	}
	if exclude <= 0 {
		return false
	}
	d := a.Starts[i] - b.Starts[k]
	return max(d, -d) < exclude
}

// checkKinds panics unless pages a and b are both of kind k.
func checkKinds(joiner string, k disk.Kind, a, b *disk.Page) {
	if a.Kind != k || b.Kind != k {
		panic(fmt.Sprintf("join: %s got %v and %v pages", joiner, a.Kind, b.Kind))
	}
}

// pageCell is the one-cell cluster a non-self JoinPages hands the block
// kernel: page a, page b, the cell (0, 0) and the hit buffer, pooled so the
// path allocates nothing in steady state.
type pageCell struct {
	a, b  kernel.ClusterBlock
	cells [1]kernel.Cell
	hits  []kernel.BlockHit
}

var pageCellPool = sync.Pool{New: func() any { return new(pageCell) }}

// joinRows is JoinPages over the rows of two vector or series pages. A self
// join tests its pairs one at a time past SelfSkip, which needs both pages'
// IDs; any other join evaluates the page pair as one cell of the block
// kernel, the scan clustered joins use, which emits the hits in (row of a,
// row of b) order. The modeled cost charges the full comparison whether or
// not the kernel abandoned early.
func joinRows(th kernel.Threshold, self bool, exclude int, a, b *disk.Page, emit func(int, int)) (int64, float64) {
	var comps int64
	if self {
		for i, idI := range a.IDs {
			row := a.Flat.Row(i)
			for k, idK := range b.IDs {
				if SelfSkip(a, i, b, k, exclude) {
					continue
				}
				comps++
				if th.Within(row, b.Flat.Row(k)) {
					emit(idI, idK)
				}
			}
		}
	} else {
		comps = int64(len(a.IDs)) * int64(len(b.IDs))
		pc := pageCellPool.Get().(*pageCell)
		pc.a.AddPage(&a.Flat)
		pc.b.AddPage(&b.Flat)
		pc.hits = kernel.BlockPairsWithin(&th, &pc.a, &pc.b, pc.cells[:], pc.hits[:0])
		pc.a.Reset()
		pc.b.Reset()
		for _, h := range pc.hits {
			emit(a.IDs[h.I], b.IDs[h.J])
		}
		pageCellPool.Put(pc)
	}
	return comps, float64(comps) * pairCost(a.Flat.Dim)
}

// rowTest is the PairTest of vector and series rows under th, priced as
// joinRows prices one pair.
func rowTest(th kernel.Threshold) PairTest {
	return func(a *disk.Page, i int, b *disk.Page, k int) (bool, float64) {
		return th.Within(a.Flat.Row(i), b.Flat.Row(k)), pairCost(a.Flat.Dim)
	}
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
func (j VectorJoiner) JoinPages(a, b *disk.Page, emit func(int, int)) (int64, float64) {
	checkKinds("VectorJoiner", disk.Vectors, a, b)
	return joinRows(j.threshold(), j.Self, 0, a, b, emit)
}

// PairTest implements ObjectJoiner.
func (j VectorJoiner) PairTest() PairTest { return rowTest(j.threshold()) }

// BatchKernel implements BatchJoiner: non-self joins are batchable under the
// JoinPages threshold. Self joins keep the per-point loop (the id-based skip
// needs both pages' IDs).
func (j VectorJoiner) BatchKernel() (kernel.Threshold, bool) {
	if j.Self {
		return kernel.Threshold{}, false
	}
	return j.threshold(), true
}

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
func (j SeriesJoiner) JoinPages(a, b *disk.Page, emit func(int, int)) (int64, float64) {
	checkKinds("SeriesJoiner", disk.Series, a, b)
	return joinRows(kernel.NewThresholdSq(j.Eps), j.Self, j.ExcludeOverlap, a, b, emit)
}

// PairTest implements ObjectJoiner.
func (j SeriesJoiner) PairTest() PairTest { return rowTest(kernel.NewThresholdSq(j.Eps)) }

// BatchKernel implements BatchJoiner: non-self joins are batchable under the
// squared-L2 threshold. Self joins (id and overlap skips) keep the per-point
// loop.
func (j SeriesJoiner) BatchKernel() (kernel.Threshold, bool) {
	if j.Self {
		return kernel.Threshold{}, false
	}
	return kernel.NewThresholdSq(j.Eps), true
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
func (j StringJoiner) JoinPages(pa, pb *disk.Page, emit func(int, int)) (int64, float64) {
	checkKinds("StringJoiner", disk.Strings, pa, pb)
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
		for k, l1k := range l1 {
			if j.Self && SelfSkip(pa, i, pb, k, j.ExcludeOverlap) {
				continue
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
	cpu := float64(comps)*pairCost(alpha) + float64(verifs)*bandCells(j.MaxEdit, w)*editPerCellCost
	return comps, cpu
}

// PairTest implements ObjectJoiner: the frequency distance, then the banded
// edit distance on a pair that passes it, as JoinPages decides and prices
// each pair.
func (j StringJoiner) PairTest() PairTest {
	maxEdit := j.MaxEdit
	return func(a *disk.Page, i int, b *disk.Page, k int) (bool, float64) {
		cpu := pairCost(len(a.Freqs[i]))
		if seqdist.FreqDistance(a.Freqs[i], b.Freqs[k]) > maxEdit {
			return false, cpu
		}
		cpu += bandCells(maxEdit, len(a.Windows[i])) * editPerCellCost
		_, ok := seqdist.EditDistanceBounded(a.Windows[i], b.Windows[k], maxEdit)
		return ok, cpu
	}
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
