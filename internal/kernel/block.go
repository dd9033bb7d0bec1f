package kernel

import (
	"fmt"
	"sync"
)

// ClusterBlock is one side of a comparison run as the block kernel sees it:
// the list of the side's FlatPages, in the order they were added, read in
// place. The join executor keeps one per run side: a clustered run's is its
// cluster's pinned pages (the list reused across clusters), and a run of
// the unclustered executors holds one page per cell. A BlockPairsWithin
// call evaluates a few of the run's cells against the two. No row is
// copied: the pages must stay valid, and unmodified, until the last call
// that reads the block returns.
//
// Empty pages occupy a page slot with zero rows; every non-empty page must
// share one dimensionality, fixed by the first non-empty AddPage.
type ClusterBlock struct {
	pages []*FlatPage
	rows  int // total rows across pages
	dim   int // the non-empty pages' dimensionality; meaningful once rows > 0
}

// Reset clears the block for reuse, keeping its page list's storage and
// dropping its page references.
func (b *ClusterBlock) Reset() {
	clear(b.pages)
	*b = ClusterBlock{pages: b.pages[:0]}
}

// AddPage appends page f to the block and returns its page index. It panics
// if a non-empty page disagrees with the block's dimensionality.
func (b *ClusterBlock) AddPage(f *FlatPage) int {
	if f.N > 0 {
		if b.rows == 0 {
			b.dim = f.Dim
		} else if f.Dim != b.dim {
			panic(fmt.Sprintf("kernel: page of dim %d in cluster block of dim %d", f.Dim, b.dim))
		}
		b.rows += f.N
	}
	b.pages = append(b.pages, f)
	return len(b.pages) - 1
}

// Pages returns the number of pages added since the last Reset.
func (b *ClusterBlock) Pages() int { return len(b.pages) }

// Rows returns the total row count of the block's pages.
func (b *ClusterBlock) Rows() int { return b.rows }

// PageRows returns the row count of page p.
func (b *ClusterBlock) PageRows(p int) int { return b.pages[p].N }

// Dim returns the block's row dimensionality (0 while every page is empty).
func (b *ClusterBlock) Dim() int {
	if b.rows == 0 {
		return 0
	}
	return b.dim
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

// sumsPool recycles the row-sum scratch buffer of the vector path across
// calls, keeping it allocation-free in steady state.
var sumsPool = sync.Pool{New: func() any { s := make([]float64, 0, 256); return &s }}

// cellHitsPool recycles the per-probe index scratch of the reference block
// path.
var cellHitsPool = sync.Pool{New: func() any { s := make([]int, 0, 256); return &s }}

// BlockPairsWithin evaluates every marked cell of a cluster in one call,
// appending a BlockHit for each (probe row i of cell.R, data row j of
// cell.S) pair within the threshold and returning the extended slice. It
// reads the cells' pages where they are.
//
// Hits are emitted grouped by cell in cells order, and within one cell by
// (I ascending, J ascending) — exactly the order a per-pair loop over
// PagePairWithin produces, which is what keeps the executor's Report and
// pair stream bit-identical to a serial per-pair loop. The hit decisions
// themselves are identical to PagePairWithin's for every input: the vector
// path re-associates sums differently (four probes per pass), but any sum
// inside the reassocBand sliver is re-decided by the same exact t.Within
// reference, so no decision can differ.
func BlockPairsWithin(t *Threshold, br, bs *ClusterBlock, cells []Cell, hits []BlockHit) []BlockHit {
	if t.never || len(cells) == 0 || br.rows == 0 || bs.rows == 0 {
		return hits
	}
	dim := br.dim
	if bs.dim != dim {
		panic(fmt.Sprintf("kernel: cluster blocks of dim %d vs %d", br.dim, bs.dim))
	}
	if useSIMD && dim >= blockDim && (t.p == 1 || t.p == 2) {
		return blockPairsSumSIMD(t, br, bs, cells, hits)
	}
	// Reference path: the per-pair kernel over each cell's two pages. Every
	// norm, dimensionality, and non-SIMD build routes here, so it is
	// per-pair-identical by construction.
	ip := cellHitsPool.Get().(*[]int)
	for ci, c := range cells {
		pr, ps := br.pages[c.R], bs.pages[c.S]
		if ps.N == 0 {
			continue
		}
		for i := 0; i < pr.N; i++ {
			*ip = PagePairWithin(t, pr.Row(i), ps, (*ip)[:0])
			for _, j := range *ip {
				hits = append(hits, BlockHit{Cell: int32(ci), I: int32(i), J: int32(j)})
			}
		}
	}
	cellHitsPool.Put(ip)
	return hits
}

// blockPairsSumSIMD is the vector path of BlockPairsWithin: cell by cell, the
// row-sum kernels stream the R page's probe rows over the S page, four probes
// per pass (l2Sums4Asm / l1Sums4Asm share each data load across four
// accumulator sets) and the R page's last nR mod 4 rows one at a time. Probe
// rows ascend through the cell, so hits fall out cell-major with no
// reordering. Classification is the same banded scheme as the scalar
// pagePairSumBlocked: certain-within and certain-outside decide immediately,
// the band sliver re-runs the exact sequential test. The kernels take the certain-outside
// bound hiB as their early-abandon limit, so a data row whose first 8
// coordinates already put every probe above it costs one block, and a probe
// group with no row left below it skips classification altogether.
func blockPairsSumSIMD(t *Threshold, br, bs *ClusterBlock, cells []Cell, hits []BlockHit) []BlockHit {
	dim := br.dim
	band := reassocBand(dim)
	loB := t.lim * (1 - band)
	hiB := t.lim * (1 + band)
	l1 := t.p == 1
	quad := dim%4 == 0 // the 4-probe kernels handle dim in whole vector lanes
	sp := sumsPool.Get().(*[]float64)
	sums := *sp
	for ci, c := range cells {
		pr, ps := br.pages[c.R], bs.pages[c.S]
		nR, nS := pr.N, ps.N
		if nR == 0 || nS == 0 {
			continue
		}
		data := ps.Data[: nS*dim : nS*dim]
		for p, g := 0, 0; p < nR; p += g {
			g = 1 // probe rows in this kernel call
			if quad && p+4 <= nR {
				g = 4
			}
			if cap(sums) < g*nS {
				sums = make([]float64, g*nS)
			}
			sums = sums[:g*nS]
			probes := pr.Data[p*dim : (p+g)*dim : (p+g)*dim]
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
				i := p + q
				probe := pr.Row(i)
				for k := 0; k < nS; k++ {
					s := sums[g*k+q]
					if s <= loB {
						hits = append(hits, BlockHit{int32(ci), int32(i), int32(k)})
					} else if !(s > hiB) && t.Within(probe, ps.Row(k)) {
						hits = append(hits, BlockHit{int32(ci), int32(i), int32(k)})
					}
				}
			}
		}
	}
	*sp = sums
	sumsPool.Put(sp)
	return hits
}
