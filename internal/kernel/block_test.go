package kernel

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pmjoin/internal/dataset"
	"pmjoin/internal/geom"
)

// buildBlock returns a ClusterBlock over pages.
func buildBlock(pages []*FlatPage) *ClusterBlock {
	b := &ClusterBlock{}
	for _, p := range pages {
		b.AddPage(p)
	}
	return b
}

// refBlockHits is the per-pair reference for BlockPairsWithin: a loop of
// PagePairWithin calls over the original pages, in cell order, probe rows
// ascending. It also returns the comparison count of the loop.
func refBlockHits(t *Threshold, pagesR, pagesS []*FlatPage, cells []Cell) ([]BlockHit, int64) {
	var hits []BlockHit
	var comps int64
	var scratch []int
	for ci, c := range cells {
		pr, ps := pagesR[c.R], pagesS[c.S]
		comps += int64(pr.N) * int64(ps.N)
		for i := 0; i < pr.N; i++ {
			scratch = PagePairWithin(t, pr.Row(i), ps, scratch[:0])
			for _, j := range scratch {
				hits = append(hits, BlockHit{Cell: int32(ci), I: int32(i), J: int32(j)})
			}
		}
	}
	return hits, comps
}

func randFlatPage(rng *rand.Rand, dim, n int, spread float64) *FlatPage {
	p := NewFlatPage(dim, n)
	row := make([]float64, dim)
	for i := 0; i < n; i++ {
		for d := range row {
			row[d] = rng.NormFloat64() * spread
		}
		p.AppendRow(row)
	}
	return p
}

// TestBlockPairsWithinMatchesPagePair is the batch kernel's exactness
// contract: for random clusters, BlockPairsWithin must emit exactly the hit
// sequence (order included) of a per-pair PagePairWithin loop, under every
// norm, with the vector path on and off, and the formula comparison count
// must match the loop's.
func TestBlockPairsWithinMatchesPagePair(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	norms := []geom.Norm{geom.L1, geom.L2, geom.LInf, {P: 3}, {P: 4}}
	saved := useSIMD
	defer func() { useSIMD = saved }()
	for _, dim := range []int{2, 8, 12, 16, 19} {
		for trial := 0; trial < 4; trial++ {
			pagesR := make([]*FlatPage, 4)
			pagesS := make([]*FlatPage, 4)
			for i := range pagesR {
				n := rng.Intn(9)
				if trial == 1 && i == 2 {
					n = 0 // empty page in the middle of a run
				}
				pagesR[i] = randFlatPage(rng, dim, n, 1)
			}
			for i := range pagesS {
				pagesS[i] = randFlatPage(rng, dim, rng.Intn(9), 1)
			}
			br, bs := buildBlock(pagesR), buildBlock(pagesS)
			// Column-major cells (the SC layout: runs of adjacent R pages per
			// S page), plus a few scattered repeats.
			var cells []Cell
			for s := 0; s < 4; s++ {
				for r := 0; r < 4; r++ {
					if rng.Intn(3) > 0 {
						cells = append(cells, Cell{R: r, S: s})
					}
				}
			}
			cells = append(cells, Cell{R: 3, S: 0}, Cell{R: 0, S: 2}, Cell{R: 1, S: 2})
			for _, n := range norms {
				for _, eps := range []float64{0.5 * math.Sqrt(float64(dim)), 0, math.Inf(1), -1} {
					th := NewThreshold(n, eps)
					useSIMD = false
					want, wantComps := refBlockHits(&th, pagesR, pagesS, cells)
					var gotComps int64
					for _, c := range cells {
						gotComps += int64(br.PageRows(c.R)) * int64(bs.PageRows(c.S))
					}
					if gotComps != wantComps {
						t.Fatalf("dim %d %v: block comps %d, loop comps %d", dim, n, gotComps, wantComps)
					}
					for _, mode := range []bool{false, hasSIMD} {
						useSIMD = mode
						got := BlockPairsWithin(&th, br, bs, cells, nil)
						if len(got) != len(want) {
							t.Fatalf("dim %d %v eps %g simd %v: %d hits, want %d",
								dim, n, eps, mode, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("dim %d %v eps %g simd %v: hit %d = %v, want %v",
									dim, n, eps, mode, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestClusterBlockLayout checks page indices, row counts, reuse and
// empty-page handling, and that the block holds the added pages themselves:
// each slot is the page that was added, its rows live in that page's own
// backing array, and a row written into a page after AddPage is the row the
// kernel reads. A block that copied rows would fail the last check.
func TestClusterBlockLayout(t *testing.T) {
	b := &ClusterBlock{}
	if b.Pages() != 0 || b.Rows() != 0 || b.Dim() != 0 {
		t.Fatalf("fresh block: pages %d rows %d dim %d", b.Pages(), b.Rows(), b.Dim())
	}
	empty := NewFlatPage(0, 0)
	p0 := NewFlatPage(3, 2)
	p0.AppendRow([]float64{1, 2, 3})
	p0.AppendRow([]float64{4, 5, 6})
	p1 := NewFlatPage(3, 1)
	p1.AppendRow([]float64{7, 8, 9})
	if got := b.AddPage(empty); got != 0 {
		t.Fatalf("first page index %d", got)
	}
	if got := b.AddPage(p0); got != 1 {
		t.Fatalf("second page index %d", got)
	}
	b.AddPage(empty)
	b.AddPage(p1)
	if b.Pages() != 4 || b.Rows() != 3 || b.Dim() != 3 {
		t.Fatalf("block: pages %d rows %d dim %d", b.Pages(), b.Rows(), b.Dim())
	}
	for i, want := range []int{0, 2, 0, 1} {
		if got := b.PageRows(i); got != want {
			t.Fatalf("page %d rows %d, want %d", i, got, want)
		}
	}
	for i, want := range []*FlatPage{empty, p0, empty, p1} {
		got := b.pages[i]
		if got != want {
			t.Fatalf("page slot %d holds %p, want the added page %p", i, got, want)
		}
		if want.N > 0 && &got.Data[0] != &want.Data[0] {
			t.Fatalf("page slot %d: rows are not the added page's backing array", i)
		}
	}

	// The kernel reads the pages in place: move p0's row 1 onto p1's only
	// row after both were added, and the cell (p0, p1) must find the pair.
	th := NewThresholdSq(0.5)
	cells := []Cell{{R: 1, S: 3}}
	if hits := BlockPairsWithin(&th, b, b, cells, nil); len(hits) != 0 {
		t.Fatalf("hits before the write: %v", hits)
	}
	copy(p0.Row(1), p1.Row(0))
	want := []BlockHit{{Cell: 0, I: 1, J: 0}}
	if hits := BlockPairsWithin(&th, b, b, cells, nil); !slices.Equal(hits, want) {
		t.Fatalf("hits after writing a page row: %v, want %v (the block copied the rows)", hits, want)
	}

	b.Reset()
	if b.Pages() != 0 || b.Rows() != 0 || b.Dim() != 0 {
		t.Fatalf("after reset: pages %d rows %d dim %d", b.Pages(), b.Rows(), b.Dim())
	}
	if b.AddPage(p1) != 0 || b.Rows() != 1 {
		t.Fatalf("reused block: pages %d rows %d", b.Pages(), b.Rows())
	}
}

// TestSums4AsmMatchesSingle compares the 4-probe row-sum kernels against four
// single-probe calls within the re-association tolerance the banded
// classification budgets for. The limit is +Inf, so no row stops early.
func TestSums4AsmMatchesSingle(t *testing.T) {
	if !hasSIMD {
		t.Skip("no AVX2+FMA")
	}
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{4, 8, 12, 16, 28, 64} {
		for _, rows := range []int{1, 2, 3, 7, 33} {
			probes := make([]float64, 4*dim)
			for i := range probes {
				probes[i] = rng.NormFloat64()
			}
			data := make([]float64, rows*dim)
			for i := range data {
				data[i] = rng.NormFloat64()
			}
			got := make([]float64, 4*rows)
			want := make([]float64, rows)
			for _, l1 := range []bool{false, true} {
				if l1 {
					l1Sums4Asm(probes, data, got, dim, math.Inf(1))
				} else {
					l2Sums4Asm(probes, data, got, dim, math.Inf(1))
				}
				for q := 0; q < 4; q++ {
					probe := probes[q*dim : (q+1)*dim]
					if l1 {
						l1SumsAsm(probe, data, want, dim, math.Inf(1))
					} else {
						l2SumsAsm(probe, data, want, dim, math.Inf(1))
					}
					for k := 0; k < rows; k++ {
						g, w := got[4*k+q], want[k]
						tol := reassocBand(dim) * math.Max(math.Abs(w), 1e-300)
						if math.Abs(g-w) > tol {
							t.Fatalf("dim %d rows %d l1 %v probe %d row %d: 4-probe %g, single %g",
								dim, rows, l1, q, k, g, w)
						}
					}
				}
			}
		}
	}
}

// TestSumsAsmAbandon is the row-sum kernels' early-abandon contract, for all
// four routines. Against the same routine's output at limit +Inf, where no
// row stops early, every sum at a finite limit must be bit-equal, or — when
// its data row stopped at the checkpoint after the first 8 coordinates —
// > limit and no larger than the full sum. The one exception is a full sum
// that is NaN through a NaN term after the checkpoint: the partial sum is
// then any value > limit, and the row is outside either way. A stopped row
// has every one of its sums > limit. The returned count must be the number
// of data rows whose full sums are not all > limit, not counting the rows
// of that exception. Data rows include NaN and ±Inf coordinates before and
// after the checkpoint, and a copy of a probe; at limit 0 every random row
// must stop.
func TestSumsAsmAbandon(t *testing.T) {
	if !hasSIMD {
		t.Skip("no AVX2+FMA")
	}
	type sumsFunc func(probes, data, sums []float64, dim int, limit float64) int
	routines := []struct {
		name   string
		probes int // probe rows per call
		f      sumsFunc
	}{
		{"l2SumsAsm", 1, l2SumsAsm},
		{"l1SumsAsm", 1, l1SumsAsm},
		{"l2Sums4Asm", 4, l2Sums4Asm},
		{"l1Sums4Asm", 4, l1Sums4Asm},
	}
	rng := rand.New(rand.NewSource(13))
	nan, inf := math.NaN(), math.Inf(1)
	for _, dim := range []int{8, 12, 16, 60, 64} {
		probes := make([]float64, 4*dim)
		for i := range probes {
			probes[i] = rng.NormFloat64()
		}
		var data []float64
		row := func(set map[int]float64) {
			r := make([]float64, dim)
			for j := range r {
				r[j] = rng.NormFloat64()
			}
			for j, v := range set {
				r[j] = v
			}
			data = append(data, r...)
		}
		for k := 0; k < 24; k++ {
			row(nil)
		}
		row(map[int]float64{3: nan})
		row(map[int]float64{dim - 1: nan})
		row(map[int]float64{0: inf})
		row(map[int]float64{dim - 1: -inf})
		row(map[int]float64{2: inf, dim - 2: nan}) // stops at the checkpoint, full sum NaN
		data = append(data, probes[:dim]...)
		rows := len(data) / dim
		for _, r := range routines {
			g := r.probes
			full := make([]float64, g*rows)
			if n := r.f(probes[:g*dim], data, full, dim, inf); n != rows {
				t.Fatalf("%s dim %d limit +Inf: count %d, want every row, %d", r.name, dim, n, rows)
			}
			var finite []float64
			for _, s := range full {
				if !math.IsNaN(s) && !math.IsInf(s, 0) {
					finite = append(finite, s)
				}
			}
			slices.Sort(finite)
			for _, limit := range []float64{0, finite[len(finite)/2], inf} {
				got := make([]float64, g*rows)
				for i := range got {
					got[i] = -1 // a sum the kernel failed to store fails every check below
				}
				n := r.f(probes[:g*dim], data, got, dim, limit)
				want, stops := 0, 0
				for k := 0; k < rows; k++ {
					stopped, live, nanFull := false, false, false
					for q := 0; q < g; q++ {
						i := g*k + q
						gs, fs := got[i], full[i]
						if math.Float64bits(gs) != math.Float64bits(fs) {
							stopped = true
							if !(gs > limit) || !(gs <= fs || math.IsNaN(fs)) {
								t.Fatalf("%s dim %d limit %g row %d probe %d: sum %g, full sum %g",
									r.name, dim, limit, k, q, gs, fs)
							}
						}
						live = live || !(fs > limit)
						nanFull = nanFull || math.IsNaN(fs)
					}
					if stopped {
						stops++
						for q := 0; q < g; q++ {
							if gs := got[g*k+q]; !(gs > limit) {
								t.Fatalf("%s dim %d limit %g row %d: stopped early, but probe %d's sum %g is not > limit",
									r.name, dim, limit, k, q, gs)
							}
						}
					}
					if live && !(stopped && nanFull) {
						want++
					}
				}
				if n != want {
					t.Fatalf("%s dim %d limit %g: count %d, want %d", r.name, dim, limit, n, want)
				}
				// At limit 0 each random row is above it after 8 coordinates;
				// past dim 8 its partial sums differ from the full ones.
				if limit == 0 && dim > 8 && stops < 24 {
					t.Fatalf("%s dim %d limit 0: %d rows stopped at the checkpoint, want at least 24", r.name, dim, stops)
				}
			}
		}
	}
}

// clusterBench builds a cluster-heavy workload: R and S sides of several
// small pages each, cells covering the full column-major grid.
func clusterBench(dim, pages, rowsPerPage int) (br, bs *ClusterBlock, pagesR, pagesS []*FlatPage, cells []Cell) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < pages; i++ {
		pagesR = append(pagesR, randFlatPage(rng, dim, rowsPerPage, 1))
		pagesS = append(pagesS, randFlatPage(rng, dim, rowsPerPage, 1))
	}
	br, bs = buildBlock(pagesR), buildBlock(pagesS)
	for s := 0; s < pages; s++ {
		for r := 0; r < pages; r++ {
			cells = append(cells, Cell{R: r, S: s})
		}
	}
	return
}

func benchmarkBlockVsLoop(b *testing.B, dim int, batch bool) {
	br, bs, pagesR, pagesS, cells := clusterBench(dim, 8, 64)
	th := NewThreshold(geom.L2, 0.3*math.Sqrt(float64(dim)))
	// Both timed paths must produce the same hit stream, order included: at
	// the timed ε, and at the median pair distance √(2·dim), where about
	// half the pairs hit.
	for _, check := range []Threshold{th, NewThreshold(geom.L2, math.Sqrt(2*float64(dim)))} {
		want, _ := refBlockHits(&check, pagesR, pagesS, cells)
		if got := BlockPairsWithin(&check, br, bs, cells, nil); !slices.Equal(got, want) {
			b.Fatalf("BlockPairsWithin gives %d hits, the per-pair loop %d, or they differ in order", len(got), len(want))
		}
	}
	var hits []BlockHit
	var scratch []int
	b.SetBytes(int64(len(cells)) * 64 * 64 * int64(dim) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batch {
			hits = BlockPairsWithin(&th, br, bs, cells, hits[:0])
		} else {
			hits = hits[:0]
			for ci, c := range cells {
				pr, ps := pagesR[c.R], pagesS[c.S]
				for k := 0; k < pr.N; k++ {
					scratch = PagePairWithin(&th, pr.Row(k), ps, scratch[:0])
					for _, j := range scratch {
						hits = append(hits, BlockHit{Cell: int32(ci), I: int32(k), J: int32(j)})
					}
				}
			}
		}
	}
	_ = hits
}

func BenchmarkBlockPairsDim16(b *testing.B)   { benchmarkBlockVsLoop(b, 16, true) }
func BenchmarkPagePairLoopDim16(b *testing.B) { benchmarkBlockVsLoop(b, 16, false) }
func BenchmarkBlockPairsDim64(b *testing.B)   { benchmarkBlockVsLoop(b, 64, true) }
func BenchmarkPagePairLoopDim64(b *testing.B) { benchmarkBlockVsLoop(b, 64, false) }

// BenchmarkBlockPairsLandsat times one cluster at the landsat_sim shape: 50
// R and 50 S pages of 60-d Landsat rows, every cell marked in column-major
// order, at the benchmark's ε. The pages have the workload's fill: at seed 1
// STR leaves 1 665 of each side's 5 761 landsat pages with a single vector
// and the rest with 8, so each page here holds one row with that frequency
// and 8 otherwise. As in the benchmark's data, one S row in 50 is an R row
// moved by less than ε/32, so the join has a few results and almost every
// other pair is out of range within the first coordinates: the kernel's
// early abandon decides the time.
func BenchmarkBlockPairsLandsat(b *testing.B) {
	const dim, pages, eps = 60, 50, 0.0155736
	rng := rand.New(rand.NewSource(3))
	fill := make([]int, 2*pages) // R pages, then S pages
	rowsR, rows := 0, 0
	for i := range fill {
		fill[i] = 8
		if rng.Intn(5761) < 1665 {
			fill[i] = 1
		}
		rows += fill[i]
		if i < pages {
			rowsR = rows
		}
	}
	vecs := dataset.Landsat(rows, dim, 3)
	amp := eps / 32 / math.Sqrt(dim)
	for j := rowsR; j < len(vecs); j += 50 {
		src := vecs[rng.Intn(rowsR)]
		v := make(geom.Vector, dim)
		for d := range v {
			v[d] = src[d] + (2*rng.Float64()-1)*amp
		}
		vecs[j] = v
	}
	var pagesR, pagesS []*FlatPage
	for i, n := range fill {
		p := NewFlatPage(dim, n)
		for _, v := range vecs[:n] {
			p.AppendRow(v)
		}
		vecs = vecs[n:]
		if i < pages {
			pagesR = append(pagesR, p)
		} else {
			pagesS = append(pagesS, p)
		}
	}
	br, bs := buildBlock(pagesR), buildBlock(pagesS)
	var cells []Cell
	for s := 0; s < pages; s++ {
		for r := 0; r < pages; r++ {
			cells = append(cells, Cell{R: r, S: s})
		}
	}
	th := NewThresholdSq(eps)
	// Check the hit stream at the timed ε and at 30 ε, where about 3 % of
	// the pairs are within range and many more rows run to their end.
	var comps int64
	for _, check := range []Threshold{th, NewThresholdSq(30 * eps)} {
		want, n := refBlockHits(&check, pagesR, pagesS, cells)
		if got := BlockPairsWithin(&check, br, bs, cells, nil); !slices.Equal(got, want) {
			b.Fatalf("BlockPairsWithin gives %d hits, the per-pair loop %d, or they differ in order", len(got), len(want))
		}
		comps = n
	}
	var hits []BlockHit
	b.SetBytes(comps * dim * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits = BlockPairsWithin(&th, br, bs, cells, hits[:0])
	}
	_ = hits
}
