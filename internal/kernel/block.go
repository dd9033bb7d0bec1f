package kernel

import (
	"fmt"
	"sync"
)

// ClusterBlock concatenates one cluster side's FlatPages into a single
// row-major block with per-page row offsets. The clustered executor builds
// one per side per cluster (from the pinned page set, reusing the block's
// own storage across clusters) and evaluates every marked page pair of the
// cluster against it in one BlockPairsWithin call, so the vector kernels
// stream across page boundaries instead of restarting per pair.
//
// Empty pages occupy a page slot with zero rows; every non-empty page must
// share one dimensionality, fixed by the first non-empty AddPage.
type ClusterBlock struct {
	dim  int       // -1 until the first non-empty page fixes it
	offs []int     // per page, starting row; len = Pages()+1
	data []float64 // concatenated rows, row-major with stride dim
}

// Reset clears the block for reuse, keeping its storage.
func (b *ClusterBlock) Reset() {
	b.dim = -1
	b.offs = append(b.offs[:0], 0)
	b.data = b.data[:0]
}

// AddPage appends one page's rows to the block and returns its page index.
// It panics if a non-empty page disagrees with the block's dimensionality.
func (b *ClusterBlock) AddPage(f *FlatPage) int {
	if len(b.offs) == 0 {
		b.Reset()
	}
	if f.N > 0 {
		if b.dim < 0 {
			b.dim = f.Dim
		} else if f.Dim != b.dim {
			panic(fmt.Sprintf("kernel: page of dim %d in cluster block of dim %d", f.Dim, b.dim))
		}
		b.data = append(b.data, f.Data[:f.N*f.Dim]...)
	}
	b.offs = append(b.offs, b.offs[len(b.offs)-1]+f.N)
	return len(b.offs) - 2
}

// Pages returns the number of pages added since the last Reset.
func (b *ClusterBlock) Pages() int { return len(b.offs) - 1 }

// Rows returns the total row count of the block.
func (b *ClusterBlock) Rows() int { return b.offs[len(b.offs)-1] }

// PageRows returns the row count of page p.
func (b *ClusterBlock) PageRows(p int) int { return b.offs[p+1] - b.offs[p] }

// Dim returns the block's row dimensionality (0 while every page is empty).
func (b *ClusterBlock) Dim() int {
	if b.dim < 0 {
		return 0
	}
	return b.dim
}

// Row returns global row r as a slice into the block.
func (b *ClusterBlock) Row(r int) []float64 {
	off := r * b.dim
	return b.data[off : off+b.dim : off+b.dim]
}

// pageView returns page p of the block as a FlatPage aliasing the block's
// storage, for the reference per-pair kernel.
func (b *ClusterBlock) pageView(p int) FlatPage {
	lo, hi := b.offs[p], b.offs[p+1]
	if lo == hi {
		return FlatPage{Dim: b.Dim()}
	}
	return FlatPage{Dim: b.dim, N: hi - lo, Data: b.data[lo*b.dim : hi*b.dim : hi*b.dim]}
}

// Cell is one marked (pageR, pageS) entry of a cluster, as page indices into
// the two ClusterBlocks.
type Cell struct {
	R, S int
}

// BlockHit is one result of a batched cluster evaluation: row I of cell
// Cell's R page is within threshold of row J of its S page. Cell indexes the
// cells slice passed to BlockPairsWithin, so hits map back to submission
// order.
type BlockHit struct {
	Cell, I, J int32
}

// cellHitsPool recycles the per-probe index scratch of the reference block
// path.
var cellHitsPool = sync.Pool{New: func() any { s := make([]int, 0, 256); return &s }}

// BlockPairsWithin evaluates every marked cell of a cluster in one call,
// appending a BlockHit for each (probe row i of cell.R, data row j of
// cell.S) pair within the threshold and returning the extended slice.
//
// Hits are emitted grouped by cell in cells order, and within one cell by
// (I ascending, J ascending) — exactly the order a per-pair loop over
// PagePairWithin produces, which is what keeps the executor's Report and
// pair stream bit-identical batch on vs. off. The hit decisions themselves
// are identical to PagePairWithin's for every input: the vector path
// re-associates sums differently (four probes per pass, streamed across
// page boundaries), but any sum inside the reassocBand sliver is re-decided
// by the same exact t.Within reference, so no decision can differ.
func BlockPairsWithin(t *Threshold, br, bs *ClusterBlock, cells []Cell, hits []BlockHit) []BlockHit {
	if t.never || len(cells) == 0 || br.Rows() == 0 || bs.Rows() == 0 {
		return hits
	}
	dim := br.dim
	if bs.dim != dim {
		panic(fmt.Sprintf("kernel: cluster blocks of dim %d vs %d", br.dim, bs.dim))
	}
	if useSIMD && dim >= blockDim && (t.p == 1 || t.p == 2) {
		return blockPairsSumSIMD(t, br, bs, cells, hits)
	}
	// Reference path: the per-pair kernel over page views of the block. Every
	// norm, dimensionality, and non-SIMD build routes here, so batch mode is
	// per-pair-identical by construction outside the vector span path.
	ip := cellHitsPool.Get().(*[]int)
	for ci, c := range cells {
		view := bs.pageView(c.S)
		nR := br.PageRows(c.R)
		if nR == 0 || view.N == 0 {
			continue
		}
		rOff := br.offs[c.R]
		for i := 0; i < nR; i++ {
			*ip = PagePairWithin(t, br.Row(rOff+i), &view, (*ip)[:0])
			for _, j := range *ip {
				hits = append(hits, BlockHit{Cell: int32(ci), I: int32(i), J: int32(j)})
			}
		}
	}
	cellHitsPool.Put(ip)
	return hits
}

// blockPairsSumSIMD is the vector span path of BlockPairsWithin: consecutive
// cells sharing one S page whose R pages are adjacent in the block (the
// dominant layout — SC emits a cluster's entries column-major) form one run
// whose probe rows are contiguous across page boundaries, and the row-sum
// kernels stream four probes per pass over the S page (l2Sums4Asm /
// l1Sums4Asm share each data load across four accumulator sets). Probe rows
// ascend through the run, so hits fall out cell-major with no reordering.
// Classification is the same banded scheme as pagePairSumSIMD: certain-
// within and certain-outside decide immediately, the band sliver re-runs
// the exact sequential test. The kernels take the certain-outside bound hiB
// as their early-abandon limit, so a data row whose first 8 coordinates
// already put every probe above it costs one block, and a probe group with
// no row left below it skips classification altogether.
func blockPairsSumSIMD(t *Threshold, br, bs *ClusterBlock, cells []Cell, hits []BlockHit) []BlockHit {
	dim := br.dim
	band := reassocBand(dim)
	loB := t.lim * (1 - band)
	hiB := t.lim * (1 + band)
	l1 := t.p == 1
	quad := dim%4 == 0 // the 4-probe kernels handle dim in whole vector lanes
	sp := sumsPool.Get().(*[]float64)
	sums := *sp
	for start := 0; start < len(cells); {
		end := start + 1
		cs := cells[start].S
		for end < len(cells) && cells[end].S == cs && cells[end].R == cells[end-1].R+1 {
			end++
		}
		nS := bs.PageRows(cs)
		pLo := br.offs[cells[start].R]
		pHi := br.offs[cells[end-1].R+1]
		if nS == 0 || pLo == pHi {
			start = end
			continue
		}
		sLo := bs.offs[cs]
		data := bs.data[sLo*dim : (sLo+nS)*dim : (sLo+nS)*dim]
		ci := start // classification cell cursor, monotone over the run
		for p, g := pLo, 0; p < pHi; p += g {
			g = 1 // probe rows in this kernel call
			if quad && p+4 <= pHi {
				g = 4
			}
			if cap(sums) < g*nS {
				sums = make([]float64, g*nS)
			}
			sums = sums[:g*nS]
			probes := br.data[p*dim : (p+g)*dim : (p+g)*dim]
			var live int // data rows with a sum not > hiB
			switch {
			case g == 4 && l1:
				live = l1Sums4Asm(probes, data, sums, dim, hiB)
			case g == 4:
				live = l2Sums4Asm(probes, data, sums, dim, hiB)
			case l1:
				live = l1SumsAsm(probes, data, sums, dim, hiB)
			default:
				live = l2SumsAsm(probes, data, sums, dim, hiB)
			}
			if live == 0 {
				continue // every pair of the group is certainly outside
			}
			for q := 0; q < g; q++ {
				row := p + q
				for row >= br.offs[cells[ci].R+1] {
					ci++ // empty or exhausted R page: advance to the probe's cell
				}
				cell := int32(ci)
				iLoc := int32(row - br.offs[cells[ci].R])
				probe := br.data[row*dim : (row+1)*dim : (row+1)*dim]
				for k := 0; k < nS; k++ {
					s := sums[g*k+q]
					if s <= loB {
						hits = append(hits, BlockHit{cell, iLoc, int32(k)})
					} else if !(s > hiB) && t.Within(probe, bs.Row(sLo+k)) {
						hits = append(hits, BlockHit{cell, iLoc, int32(k)})
					}
				}
			}
		}
		start = end
	}
	*sp = sums
	sumsPool.Put(sp)
	return hits
}
