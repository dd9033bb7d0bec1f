package kernel

import (
	"math"
	"testing"

	"pmjoin/internal/geom"
)

// FuzzKernelVsReference is the package's exactness contract as a fuzz target:
// for arbitrary vectors and thresholds, under L1, L2, L3 and L∞,
// kernel.WithinDist must agree with the reference n.Dist(a, b) <= eps —
// boundary equality included — and the batched FlatPage kernel must agree
// with the per-point test.
func FuzzKernelVsReference(f *testing.F) {
	// Seeds: interior, boundary-exact (3-4-5 triangle under L2), just-off
	// boundary, zero threshold, huge and tiny magnitudes.
	f.Add(0.0, 0.0, 3.0, 4.0, 5.0)
	f.Add(0.0, 0.0, 3.0, 4.0, 4.999999999999999)
	f.Add(0.0, 0.0, 3.0, 4.0, 5.000000000000001)
	f.Add(1.0, 1.0, 1.0, 1.0, 0.0)
	f.Add(-1e150, 2.0, 1e150, -2.0, 1e150)
	f.Add(1e-300, 0.0, -1e-300, 0.0, 1e-300)
	f.Add(0.1, 0.2, 0.3, 0.4, 0.28284271247461906)

	norms := []geom.Norm{geom.L1, geom.L2, geom.LInf, {P: 3}}

	// hiDim spreads the four fuzz coordinates across a 19-dimensional pair —
	// two full 8-blocks plus a tail — so the blocked batch loops and their
	// banded fallback run against the same exactness contract as dim 2.
	const hiDim = 19
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, eps float64) {
		vecs := [][2]geom.Vector{{{ax, ay}, {bx, by}}}
		ha := make(geom.Vector, hiDim)
		hb := make(geom.Vector, hiDim)
		for i := range ha {
			switch i % 4 {
			case 0:
				ha[i], hb[i] = ax, bx
			case 1:
				ha[i], hb[i] = ay, by
			case 2:
				ha[i], hb[i] = ax/8, by/8
			default:
				ha[i], hb[i] = 0, (bx-ay)/16
			}
		}
		vecs = append(vecs, [2]geom.Vector{ha, hb})
		for _, pair := range vecs {
			a, b := pair[0], pair[1]
			fuzzCheckPair(t, norms, a, b, eps)
		}
	})
}

// fuzzCheckPair asserts the exactness contract for one vector pair: Within
// against the reference comparison (raw, boundary-exact and one-ulp-off
// thresholds), and the batch kernel against the per-point test.
func fuzzCheckPair(t *testing.T, norms []geom.Norm, a, b geom.Vector, eps float64) {
	for _, n := range norms {
		// Fuzz both the raw threshold and one landing exactly on the
		// computed distance, so boundary equality is always exercised.
		cands := []float64{eps}
		if d := n.Dist(a, b); !math.IsNaN(d) {
			cands = append(cands, d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)))
		}
		for _, e := range cands {
			want := n.Dist(a, b) <= e
			th := NewThreshold(n, e)
			if got := th.Within(a, b); got != want {
				t.Fatalf("%v eps %.17g a %v b %v: Within = %v, reference = %v",
					n, e, a, b, got, want)
			}
			// Batch kernel over a page holding b (twice, plus a decoy),
			// through both the vector and the scalar blocked paths.
			decoy := b.Clone()
			decoy[0] += 1e10
			page := NewFlatPage(len(b), 3)
			page.AppendRow(b)
			page.AppendRow(decoy)
			page.AppendRow(b)
			saved := useSIMD
			for _, mode := range []bool{hasSIMD, false} {
				useSIMD = mode
				hits := PagePairWithin(&th, a, page, nil)
				for k := 0; k < page.N; k++ {
					inHits := false
					for _, h := range hits {
						if h == k {
							inHits = true
						}
					}
					if pw := th.Within(a, page.Row(k)); pw != inHits {
						t.Fatalf("%v eps %.17g simd %v: batch row %d = %v, per-point = %v",
							n, e, mode, k, inHits, pw)
					}
				}
			}
			useSIMD = saved
		}
	}
}

// FuzzBlockVsPagePair fuzzes the cluster-batched kernel against per-pair
// PagePairWithin loops: random pages (NaN/Inf coordinates arrive through the
// fuzzed floats), L1/L2/L∞/L3 thresholds including exact-boundary and
// one-ulp-off candidates, and marked-cell lists with runs, repeats, and empty
// pages. BlockPairsWithin must emit the identical hit sequence and the
// formula comparison count must equal the loop's, with the vector path on
// and off. Dim 60 is the landsat width (fifteen 4-wide lanes: the 4-probe
// kernels end on a 4-coordinate tail); shape's top bit zeroes every row's
// first 8 coordinates, so the vector kernels' early-abandon checkpoint after
// them cannot fire and the later coordinates decide. Shape bit 0x40 builds
// the landsat page fill instead: a run of 1-row R pages, with one 8-row page
// among them, against an 8-row S page, so 4-probe groups meet page
// boundaries and 1-row pages.
func FuzzBlockVsPagePair(f *testing.F) {
	f.Add(0.0, 0.0, 3.0, 4.0, 5.0, uint8(1), uint8(0))
	f.Add(0.5, -0.5, 0.25, -0.25, 0.75, uint8(2), uint8(3))
	f.Add(1e150, -1e150, 1e-300, 0.0, 1e150, uint8(3), uint8(7))
	f.Add(0.1, 0.2, 0.3, 0.4, -1.0, uint8(0), uint8(5))
	f.Add(math.Inf(1), 0.0, math.NaN(), 1.0, 2.0, uint8(2), uint8(1))
	f.Add(0.5, -0.5, 0.25, -0.25, 0.75, uint8(4), uint8(0x81))
	f.Add(0.1, 0.2, 0.3, 0.4, 2.0, uint8(5), uint8(3))
	f.Add(0.1, 0.2, 0.3, 0.4, 2.0, uint8(5), uint8(0x83))
	f.Add(0.1, 0.2, 0.3, 0.4, 2.0, uint8(5), uint8(0x41))
	f.Add(0.5, -0.5, 0.25, -0.25, 0.75, uint8(1), uint8(0x40))
	f.Add(0.1, 0.2, 0.3, 0.4, 2.0, uint8(5), uint8(0xc3))

	norms := []geom.Norm{geom.L1, geom.L2, geom.LInf, {P: 3}}
	dims := []int{2, 8, 16, 19, 12, 60}

	f.Fuzz(func(t *testing.T, v0, v1, v2, v3, eps float64, dimSel, shape uint8) {
		dim := dims[int(dimSel)%len(dims)]
		vals := [4]float64{v0, v1, v2, v3}
		mkPage := func(n, salt int) *FlatPage {
			p := NewFlatPage(dim, n)
			row := make([]float64, dim)
			for i := 0; i < n; i++ {
				for d := range row {
					row[d] = vals[(i+d+salt)%4] / float64(1+(d+salt)%3)
				}
				if shape&0x80 != 0 {
					clear(row[:min(8, dim)])
				}
				p.AppendRow(row)
			}
			return p
		}
		pagesR := []*FlatPage{
			mkPage(3, 0),
			mkPage(int(shape)%5, 1), // possibly empty
			mkPage(5, 2),
		}
		pagesS := []*FlatPage{
			mkPage(4, 3),
			mkPage(int(shape>>2)%4, 4), // possibly empty
			mkPage(6, 5),
		}
		// Column-major runs plus scattered repeats; shape varies the list.
		cells := []Cell{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 2}, {2, 2}}
		if shape&0x40 != 0 {
			pagesR = nil
			for i, n := range []int{1, 1, 1, 8, 1, 1, 1} {
				pagesR = append(pagesR, mkPage(n, 6+i))
			}
			pagesS[0] = mkPage(8, 3)
			cells = cells[:0]
			for r := range pagesR {
				cells = append(cells, Cell{r, 0})
			}
			cells = append(cells, Cell{0, 1}, Cell{3, 2}, Cell{6, 2})
		}
		if shape&1 != 0 {
			cells = append(cells, Cell{0, 0}, Cell{2, 1})
		}
		br, bs := &ClusterBlock{}, &ClusterBlock{}
		for _, p := range pagesR {
			br.AddPage(p)
		}
		for _, p := range pagesS {
			bs.AddPage(p)
		}
		saved := useSIMD
		defer func() { useSIMD = saved }()
		for _, n := range norms {
			cands := []float64{eps}
			if pagesR[0].N > 0 && pagesS[0].N > 0 {
				if d := n.Dist(pagesR[0].Row(0), pagesS[0].Row(0)); !math.IsNaN(d) {
					cands = append(cands, d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)))
				}
			}
			for _, e := range cands {
				th := NewThreshold(n, e)
				useSIMD = false
				want, wantComps := refBlockHits(&th, pagesR, pagesS, cells)
				var comps int64
				for _, c := range cells {
					comps += int64(br.PageRows(c.R)) * int64(bs.PageRows(c.S))
				}
				if comps != wantComps {
					t.Fatalf("%v eps %.17g: block comps %d, loop comps %d", n, e, comps, wantComps)
				}
				for _, mode := range []bool{false, hasSIMD} {
					useSIMD = mode
					got := BlockPairsWithin(&th, br, bs, cells, nil)
					if len(got) != len(want) {
						t.Fatalf("%v eps %.17g simd %v: %d hits, want %d", n, e, mode, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%v eps %.17g simd %v: hit %d = %v, want %v", n, e, mode, i, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// FuzzBoundVsMinDist fuzzes the MBR bound against the reference scaled
// MinDist comparison, including empty rectangles and boundary thresholds.
func FuzzBoundVsMinDist(f *testing.F) {
	f.Add(0.0, 1.0, 2.0, 3.0, 1.0, 1.0)
	f.Add(0.0, 1.0, 1.0, 2.0, 0.5, 0.0)
	f.Add(-5.0, -1.0, 1.0, 5.0, 2.0, 3.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)

	norms := []geom.Norm{geom.L1, geom.L2, geom.LInf, {P: 3}}

	f.Fuzz(func(t *testing.T, aLo, aHi, cLo, cHi, scale, eps float64) {
		a := geom.NewMBR(geom.Vector{aLo, aLo})
		a.ExtendPoint(geom.Vector{aHi, aHi})
		c := geom.NewMBR(geom.Vector{cLo, cLo})
		c.ExtendPoint(geom.Vector{cHi, cHi})
		for _, n := range norms {
			b := NewBound(n, scale, eps)
			refOK := !math.IsNaN(scale) && scale > 0
			if (b != nil) != refOK {
				t.Fatalf("%v scale %g: bound nil-ness %v, want usable %v", n, scale, b == nil, refOK)
			}
			if b == nil {
				continue
			}
			cands := []float64{eps}
			if d := scale * n.MinDist(a, c); !math.IsNaN(d) && !math.IsInf(d, 0) {
				cands = append(cands, d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)))
			}
			for _, e := range cands {
				be := NewBound(n, scale, e)
				if got, want := be.Within(a, c), scale*n.MinDist(a, c) <= e; got != want {
					t.Fatalf("%v scale %.17g eps %.17g a %v c %v: Within = %v, reference = %v",
						n, scale, e, a, c, got, want)
				}
			}
		}
	})
}
