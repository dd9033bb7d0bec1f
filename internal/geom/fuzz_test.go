package geom

import (
	"math"
	"testing"
)

// FuzzMBRIntersect fuzzes the MBR algebra against the lower-bound contract
// the prediction matrix depends on (Theorem 1): for every norm, MinDist
// between two MBRs never exceeds the distance between any pair of contained
// points, and MinDist is zero exactly when the closed rectangles intersect.
func FuzzMBRIntersect(f *testing.F) {
	// Seed corpus: overlapping, disjoint-on-x, touching-edge, containing,
	// and degenerate (point) rectangles.
	f.Add(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 2.0, 2.0)
	f.Add(0.0, 0.0, 1.0, 1.0, 3.0, 0.0, 4.0, 1.0)
	f.Add(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0)
	f.Add(-5.0, -5.0, 5.0, 5.0, -1.0, -1.0, 1.0, 1.0)
	f.Add(0.25, 0.25, 0.25, 0.25, 0.75, 0.75, 0.75, 0.75)
	f.Add(-1e9, -1e-9, 1e-9, 1e9, 0.0, 0.0, 0.0, 0.0)

	norms := []Norm{L1, L2, LInf, {P: 3}}

	f.Fuzz(func(t *testing.T, ax1, ay1, ax2, ay2, bx1, by1, bx2, by2 float64) {
		for _, v := range []float64{ax1, ay1, ax2, ay2, bx1, by1, bx2, by2} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				t.Skip("degenerate coordinate")
			}
		}
		a := NewMBR(Vector{ax1, ay1})
		a.ExtendPoint(Vector{ax2, ay2})
		b := NewMBR(Vector{bx1, by1})
		b.ExtendPoint(Vector{bx2, by2})

		overlap := a.Intersects(b)
		inter := Intersect(a, b)
		if inter.IsEmpty() == overlap {
			t.Fatalf("Intersect(%v, %v).IsEmpty() = %v, but Intersects = %v",
				a, b, inter.IsEmpty(), overlap)
		}
		u := Union(a, b)
		if !u.ContainsMBR(a) || !u.ContainsMBR(b) {
			t.Fatalf("Union(%v, %v) = %v does not contain both inputs", a, b, u)
		}

		// Sample points guaranteed to lie inside each rectangle.
		corners := func(m MBR) []Vector {
			return []Vector{
				{m.Min[0], m.Min[1]},
				{m.Min[0], m.Max[1]},
				{m.Max[0], m.Min[1]},
				{m.Max[0], m.Max[1]},
				{(m.Min[0] + m.Max[0]) / 2, (m.Min[1] + m.Max[1]) / 2},
			}
		}
		for _, n := range norms {
			md := n.MinDist(a, b)
			if overlap && md != 0 {
				t.Fatalf("%v.MinDist of intersecting %v, %v = %g, want 0", n, a, b, md)
			}
			if !overlap && md <= 0 {
				t.Fatalf("%v.MinDist of disjoint %v, %v = %g, want > 0", n, a, b, md)
			}
			for _, pa := range corners(a) {
				for _, pb := range corners(b) {
					d := n.Dist(pa, pb)
					// MinDist must lower-bound the point distance; allow one
					// part in 1e12 for the Pow-based norms' rounding.
					if md > d*(1+1e-12)+1e-300 {
						t.Fatalf("%v.MinDist(%v, %v) = %g exceeds point distance %g (%v..%v)",
							n, a, b, md, d, pa, pb)
					}
				}
			}
		}
	})
}
