package join

import (
	"fmt"

	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/kernel"
	"pmjoin/internal/seqdist"
)

// ObjectJoiner joins the objects of page pairs.
//
// JoinCells compares, for each cell in order (there is at least one), the
// objects of page r.Pages[cell.R] (a page of the first dataset) against
// those of s.Pages[cell.S] (second dataset). It appends to out one hit for
// every result pair — the cell's index in cells and the two objects' rows
// in their pages — grouped by cell in cell order and ascending (row of R,
// row of S) within a cell, adds the object-pair comparisons it performed
// to out.Comps, and appends each cell's modeled CPU seconds to out.CPU.
//
// PairTest returns the test JoinCells applies to one object pair, compiled
// once: a caller that verifies its own candidate pairs (EGO) builds it once
// a join.
type ObjectJoiner interface {
	JoinCells(r, s *Side, cells []kernel.Cell, out *CellOut)
	PairTest() PairTest
}

// Side is one side of a comparison run: its pages, in the order the run's
// cells index them, and their flat blocks as the block kernel reads them,
// in place.
type Side struct {
	Pages []*disk.Page
	Block kernel.ClusterBlock
}

// add appends page p to the side.
func (s *Side) add(p *disk.Page) {
	s.Pages = append(s.Pages, p)
	s.Block.AddPage(&p.Flat)
}

// reset empties the side, keeping its lists' storage and dropping its page
// references.
func (s *Side) reset() {
	clear(s.Pages)
	s.Pages = s.Pages[:0]
	s.Block.Reset()
}

// CellOut is what JoinCells appends to. Comparisons are a total, since
// integer sums do not depend on their order; the modeled CPU seconds are
// kept a cell apiece, so the report folds them in a serial loop's order.
type CellOut struct {
	Hits  []kernel.BlockHit
	Comps int64
	CPU   []float64
}

// PairTest decides whether object i of page a joins object k of page b, and
// returns the modeled CPU seconds of the decision. A self join's skip
// (SelfSkip) is the caller's: a skipped pair is not a comparison.
type PairTest func(a *disk.Page, i int, b *disk.Page, k int) (match bool, cpuSeconds float64)

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

// joinRows is JoinCells over vector or series pages of the given kind under
// th. A non-self join evaluates its cells with one block kernel call, which
// appends the hits cell by cell in (row of R, row of S) order, and charges
// every row pair of a cell; a self join tests its pairs one at a time past
// SelfSkip, which needs both pages' IDs. The modeled cost charges the full
// comparison whether or not the kernel abandoned early. Every non-empty page
// of a side has the side's dimensionality, and an empty one costs no
// comparison, so one per-pair price serves all cells. A call's cells read
// two datasets, one kind of page each, so its first cell's kinds are every
// cell's.
func joinRows(name string, kind disk.Kind, th kernel.Threshold, self bool, exclude int, r, s *Side, cells []kernel.Cell, out *CellOut) {
	checkKinds(name, kind, r.Pages[cells[0].R], s.Pages[cells[0].S])
	perPair := pairCost(r.Block.Dim())
	comps, cpu := out.Comps, out.CPU
	for ci, c := range cells {
		a, b := r.Pages[c.R], s.Pages[c.S]
		n := int64(len(a.IDs)) * int64(len(b.IDs))
		if self {
			n = 0
			for i := range a.IDs {
				row := a.Flat.Row(i)
				for k := range b.IDs {
					if SelfSkip(a, i, b, k, exclude) {
						continue
					}
					n++
					if th.Within(row, b.Flat.Row(k)) {
						out.Hits = append(out.Hits, kernel.BlockHit{Cell: int32(ci), I: int32(i), J: int32(k)})
					}
				}
			}
		}
		comps += n
		cpu = append(cpu, float64(n)*perPair)
	}
	out.Comps, out.CPU = comps, cpu
	if !self {
		out.Hits = kernel.BlockPairsWithin(&th, &r.Block, &s.Block, cells, out.Hits)
	}
}

// blockKernel reports whether j evaluates its cells with the block kernel:
// a non-self vector or series join. ExecStats' batch counters count these
// joins' clusters alone.
func blockKernel(j ObjectJoiner) bool {
	switch j := j.(type) {
	case VectorJoiner:
		return !j.Self
	case SeriesJoiner:
		return !j.Self
	}
	return false
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

// JoinCells implements ObjectJoiner.
func (j VectorJoiner) JoinCells(r, s *Side, cells []kernel.Cell, out *CellOut) {
	joinRows("VectorJoiner", disk.Vectors, j.threshold(), j.Self, 0, r, s, cells, out)
}

// PairTest implements ObjectJoiner.
func (j VectorJoiner) PairTest() PairTest { return rowTest(j.threshold()) }

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

// JoinCells implements ObjectJoiner.
func (j SeriesJoiner) JoinCells(r, s *Side, cells []kernel.Cell, out *CellOut) {
	joinRows("SeriesJoiner", disk.Series, kernel.NewThresholdSq(j.Eps), j.Self, j.ExcludeOverlap, r, s, cells, out)
}

// PairTest implements ObjectJoiner.
func (j SeriesJoiner) PairTest() PairTest { return rowTest(kernel.NewThresholdSq(j.Eps)) }

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

// packedStackCells is the stack capacity of JoinCells' packed frequency
// scratch, which takes alpha+2 cells per window of page b: 256 windows of a
// 4-symbol alphabet, over twice a 4 KB page of 500-symbol windows at
// stride 32.
const packedStackCells = 256 * (4 + 2)

// JoinCells implements ObjectJoiner, one cell at a time.
//
// The frequency filter runs on page b's vectors packed component-major:
// for each window of a, one pass per symbol over all of b's windows sums
// the L1 distances, and the frequency distance max(Σ positive, Σ negative
// differences) is then (L1 + |Σ d|)/2, with Σ d the difference of the two
// windows' totals. No step branches on a sign.
func (j StringJoiner) JoinCells(r, s *Side, cells []kernel.Cell, out *CellOut) {
	checkKinds("StringJoiner", disk.Strings, r.Pages[cells[0].R], s.Pages[cells[0].S])
	for ci, c := range cells {
		pa, pb := r.Pages[c.R], s.Pages[c.S]
		if len(pa.Windows) == 0 {
			out.CPU = append(out.CPU, 0)
			continue
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
			for k, l1k := range l1 {
				if j.Self && SelfSkip(pa, i, pb, k, j.ExcludeOverlap) {
					continue
				}
				comps++
				sd := ti - totals[k]
				sign := sd >> 31
				if int((l1k+(sd^sign)-sign)>>1) > j.MaxEdit {
					continue
				}
				verifs++
				if _, ok := seqdist.EditDistanceBounded(pa.Windows[i], pb.Windows[k], j.MaxEdit); ok {
					out.Hits = append(out.Hits, kernel.BlockHit{Cell: int32(ci), I: int32(i), J: int32(k)})
				}
			}
		}
		out.Comps += comps
		out.CPU = append(out.CPU, float64(comps)*pairCost(alpha)+float64(verifs)*bandCells(j.MaxEdit, w)*editPerCellCost)
	}
}

// PairTest implements ObjectJoiner: the frequency distance, then the banded
// edit distance on a pair that passes it, as JoinCells decides and prices
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
// 1.5× slower, and so does this loop inlined into JoinCells.
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
