package kernel

import (
	"fmt"
	"math"

	"pmjoin/internal/geom"
)

// FlatPage is a page's points flattened into one contiguous row-major block:
// point i occupies Data[i*Dim : (i+1)*Dim]. Batch kernels walk it linearly
// instead of pointer-chasing a []geom.Vector, so the inner loop stays in one
// stream of cache lines. A page gets its FlatPage once — built with it at
// ingest, or viewed in place by the file store — and reuses it for every
// probe.
type FlatPage struct {
	Dim  int
	N    int
	Data []float64 // len N*Dim, row-major
}

// NewFlatPage returns an empty flat page for points of the given
// dimensionality, with capacity for n of them.
func NewFlatPage(dim, n int) *FlatPage {
	return &FlatPage{Dim: dim, Data: make([]float64, 0, dim*n)}
}

// AppendRow copies one point into the block. The row must have Dim
// coordinates.
func (f *FlatPage) AppendRow(row []float64) {
	if len(row) != f.Dim {
		panic(fmt.Sprintf("kernel: row of %d coordinates in flat page of dim %d", len(row), f.Dim))
	}
	f.Data = append(f.Data, row...)
	f.N++
}

// FlatOf returns a new block holding copies of rows, which must all have
// the first one's length.
func FlatOf[V ~[]float64](rows []V) FlatPage {
	var f FlatPage
	if len(rows) > 0 {
		f = *NewFlatPage(len(rows[0]), len(rows))
	}
	for _, row := range rows {
		f.AppendRow(row)
	}
	return f
}

// Row returns point i as a slice into the block (full-capacity cut, so an
// append by the caller cannot clobber the neighbor row).
func (f *FlatPage) Row(i int) []float64 {
	off := i * f.Dim
	return f.Data[off : off+f.Dim : off+f.Dim]
}

// blockDim is the dimensionality from which PagePairWithin runs its blocked
// L1/L2 loop and BlockPairsWithin its vector row-sum kernels. Under it the
// blocked prologue costs more than it saves.
const blockDim = 8

// reassocBand returns the relative margin the blocked loops keep around a
// limit on a sum of dim non-negative terms. Re-associating such a sum into
// four accumulators perturbs it by at most ~dim ulps relative (the terms are
// non-negative, so the condition number is 1); the band is orders of
// magnitude wider, and a sum landing inside it — a ~1e-9 relative sliver the
// random traffic of a join essentially never hits — is re-decided by the
// exact sequential fallback. Same construction as the p>=3 Pow band.
func reassocBand(dim int) float64 {
	return 1e-9 + float64(dim)*4e-16
}

// PagePairWithin tests probe against every point of page under t, appending
// the indices of points within the threshold to out (a caller-owned scratch
// buffer, typically reused across probes) and returning the extended slice.
// Index k is appended exactly when t.Within(probe, page.Row(k)) holds, in
// ascending k order. The probe must have page.Dim coordinates.
//
// It is BlockPairsWithin's reference path, and its path for every input but
// L1 and L2 at dim >= 8 on AVX2 hardware.
//
// For dim >= 8, L1 and L2 run a blocked loop: eight coordinates per
// iteration feeding four independent accumulators (the sequential
// add-after-add dependency chain, not the multiplies, bounds the plain loop),
// with one early-abandon branch per block instead of per coordinate. The
// re-associated sum is compared against a banded limit (reassocBand); only
// the sliver between certain-within and certain-outside re-runs the exact
// sequential test, so the result still matches t.Within bit for bit. Every
// other norm and dimensionality runs a plain sequential loop.
func PagePairWithin(t *Threshold, probe []float64, page *FlatPage, out []int) []int {
	if t.never || page.N == 0 {
		return out
	}
	dim := page.Dim
	if len(probe) != dim {
		panic(fmt.Sprintf("kernel: probe of %d coordinates against page of dim %d", len(probe), dim))
	}
	probe = probe[:dim:dim]
	data := page.Data
	if dim >= blockDim && (t.p == 1 || t.p == 2) {
		return pagePairSumBlocked(t, probe, page, out)
	}
	switch t.p {
	case 0:
		lim := t.lim
	scanInf:
		for k := 0; k < page.N; k++ {
			row := data[k*dim : (k+1)*dim]
			for j, rv := range row {
				if math.Abs(probe[j]-rv) > lim {
					continue scanInf
				}
			}
			out = append(out, k)
		}
	case 1:
		lim := t.lim
	scanL1:
		for k := 0; k < page.N; k++ {
			row := data[k*dim : (k+1)*dim]
			var s float64
			for j, rv := range row {
				s += math.Abs(probe[j] - rv)
				if s > lim {
					continue scanL1
				}
			}
			if s <= lim {
				out = append(out, k)
			}
		}
	case 2:
		lim := t.lim
	scanL2:
		for k := 0; k < page.N; k++ {
			row := data[k*dim : (k+1)*dim]
			var s float64
			for j, rv := range row {
				d := probe[j] - rv
				s += d * d
				if s > lim {
					continue scanL2
				}
			}
			// s <= lim also rejects NaN sums, which skip the > abandon.
			if s <= lim {
				out = append(out, k)
			}
		}
	default:
	scanLp:
		for k := 0; k < page.N; k++ {
			row := data[k*dim : (k+1)*dim]
			var s float64
			for j, rv := range row {
				s += geom.PowInt(math.Abs(probe[j]-rv), t.p)
				if s > t.hi {
					continue scanLp
				}
			}
			if s <= t.lo || t.scale*math.Pow(s, t.invP) <= t.eps {
				out = append(out, k)
			}
		}
	}
	return out
}

// pagePairSumBlocked is the blocked L1/L2 scan, and the only one at dim >= 8
// on builds without AVX2: four independent accumulators over blocks of
// eight, one abandon branch per sixteen coordinates (checking per block
// costs more in mispredictions than the skipped arithmetic saves), banded
// limits with the exact sequential t.Within deciding the sliver.
func pagePairSumBlocked(t *Threshold, probe []float64, page *FlatPage, out []int) []int {
	dim := page.Dim
	data := page.Data
	band := reassocBand(dim)
	loB := t.lim * (1 - band)
	hiB := t.lim * (1 + band)
	l1 := t.p == 1
scan:
	for k := 0; k < page.N; k++ {
		base := k * dim
		row := data[base : base+dim : base+dim]
		var s0, s1, s2, s3 float64
		j := 0
		if l1 {
			for ; j+16 <= dim; j += 16 {
				r8 := row[j : j+16 : j+16]
				p8 := probe[j : j+16 : j+16]
				s0 += math.Abs(p8[0]-r8[0]) + math.Abs(p8[4]-r8[4])
				s1 += math.Abs(p8[1]-r8[1]) + math.Abs(p8[5]-r8[5])
				s2 += math.Abs(p8[2]-r8[2]) + math.Abs(p8[6]-r8[6])
				s3 += math.Abs(p8[3]-r8[3]) + math.Abs(p8[7]-r8[7])
				s0 += math.Abs(p8[8]-r8[8]) + math.Abs(p8[12]-r8[12])
				s1 += math.Abs(p8[9]-r8[9]) + math.Abs(p8[13]-r8[13])
				s2 += math.Abs(p8[10]-r8[10]) + math.Abs(p8[14]-r8[14])
				s3 += math.Abs(p8[11]-r8[11]) + math.Abs(p8[15]-r8[15])
				if (s0+s1)+(s2+s3) > hiB {
					continue scan
				}
			}
			if j+8 <= dim {
				r8 := row[j : j+8 : j+8]
				p8 := probe[j : j+8 : j+8]
				s0 += math.Abs(p8[0]-r8[0]) + math.Abs(p8[4]-r8[4])
				s1 += math.Abs(p8[1]-r8[1]) + math.Abs(p8[5]-r8[5])
				s2 += math.Abs(p8[2]-r8[2]) + math.Abs(p8[6]-r8[6])
				s3 += math.Abs(p8[3]-r8[3]) + math.Abs(p8[7]-r8[7])
				j += 8
			}
			for ; j < dim; j++ {
				s0 += math.Abs(probe[j] - row[j])
			}
		} else {
			for ; j+16 <= dim; j += 16 {
				r8 := row[j : j+16 : j+16]
				p8 := probe[j : j+16 : j+16]
				d0 := p8[0] - r8[0]
				d1 := p8[1] - r8[1]
				d2 := p8[2] - r8[2]
				d3 := p8[3] - r8[3]
				d4 := p8[4] - r8[4]
				d5 := p8[5] - r8[5]
				d6 := p8[6] - r8[6]
				d7 := p8[7] - r8[7]
				s0 += d0*d0 + d4*d4
				s1 += d1*d1 + d5*d5
				s2 += d2*d2 + d6*d6
				s3 += d3*d3 + d7*d7
				d0 = p8[8] - r8[8]
				d1 = p8[9] - r8[9]
				d2 = p8[10] - r8[10]
				d3 = p8[11] - r8[11]
				d4 = p8[12] - r8[12]
				d5 = p8[13] - r8[13]
				d6 = p8[14] - r8[14]
				d7 = p8[15] - r8[15]
				s0 += d0*d0 + d4*d4
				s1 += d1*d1 + d5*d5
				s2 += d2*d2 + d6*d6
				s3 += d3*d3 + d7*d7
				if (s0+s1)+(s2+s3) > hiB {
					continue scan
				}
			}
			if j+8 <= dim {
				r8 := row[j : j+8 : j+8]
				p8 := probe[j : j+8 : j+8]
				d0 := p8[0] - r8[0]
				d1 := p8[1] - r8[1]
				d2 := p8[2] - r8[2]
				d3 := p8[3] - r8[3]
				d4 := p8[4] - r8[4]
				d5 := p8[5] - r8[5]
				d6 := p8[6] - r8[6]
				d7 := p8[7] - r8[7]
				s0 += d0*d0 + d4*d4
				s1 += d1*d1 + d5*d5
				s2 += d2*d2 + d6*d6
				s3 += d3*d3 + d7*d7
				j += 8
			}
			for ; j < dim; j++ {
				d := probe[j] - row[j]
				s0 += d * d
			}
		}
		s := (s0 + s1) + (s2 + s3)
		if s <= loB {
			out = append(out, k)
		} else if !(s > hiB) && t.Within(probe, row) {
			// Inside the band (or a NaN sum): the blocked sum cannot decide;
			// the sequential reference does, exactly.
			out = append(out, k)
		}
	}
	return out
}
