package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pmjoin/internal/geom"
)

// norms under test: the package's exactness contract covers L∞, L1, L2 and
// the PowInt/band path (L3 here; higher p exercises the same code).
var testNorms = []geom.Norm{geom.LInf, geom.L1, geom.L2, {P: 3}, {P: 4}}

func randVec(rng *rand.Rand, dim int, span float64) geom.Vector {
	v := make(geom.Vector, dim)
	for i := range v {
		v[i] = (rng.Float64()*2 - 1) * span
	}
	return v
}

// TestWithinDistMatchesReference drives random pairs through every norm with
// thresholds chosen to land on both sides of — and exactly on — the decision
// boundary.
func TestWithinDistMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range testNorms {
		for _, dim := range []int{1, 2, 3, 8, 33} {
			for trial := 0; trial < 300; trial++ {
				a := randVec(rng, dim, 10)
				b := randVec(rng, dim, 10)
				d := n.Dist(a, b)
				// Thresholds around the boundary: the exact distance, its
				// float neighbors, scaled variants, and degenerate values.
				eps := []float64{
					d,
					math.Nextafter(d, 0),
					math.Nextafter(d, math.Inf(1)),
					d * 0.5, d * 2,
					0, math.Inf(1),
				}
				for _, e := range eps {
					want := n.Dist(a, b) <= e
					if got := WithinDist(a, b, n, e); got != want {
						t.Fatalf("%v dim %d eps %.17g: WithinDist = %v, Dist %.17g <= eps = %v",
							n, dim, e, got, d, want)
					}
				}
			}
		}
	}
}

// TestWithinDistSpecialValues pins the non-finite corner cases.
func TestWithinDistSpecialValues(t *testing.T) {
	a := geom.Vector{0, 0}
	b := geom.Vector{3, 4}
	nan := math.NaN()
	for _, n := range testNorms {
		if WithinDist(a, b, n, nan) {
			t.Errorf("%v: within NaN eps", n)
		}
		if WithinDist(a, b, n, -1) {
			t.Errorf("%v: within negative eps", n)
		}
		if !WithinDist(a, b, n, math.Inf(1)) {
			t.Errorf("%v: not within +Inf eps", n)
		}
		// NaN coordinates: Dist is NaN, so <= eps is false for finite eps.
		c := geom.Vector{nan, 0}
		if WithinDist(a, c, n, 100) != (n.Dist(a, c) <= 100) {
			t.Errorf("%v: NaN coordinate disagrees with reference", n)
		}
		if WithinDist(a, c, n, math.Inf(1)) != (n.Dist(a, c) <= math.Inf(1)) {
			t.Errorf("%v: NaN coordinate vs +Inf eps disagrees with reference", n)
		}
	}
}

func TestWithinDistPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	WithinDist(geom.Vector{1}, geom.Vector{1, 2}, geom.L2, 1)
}

// TestThresholdSqMatchesEpsSqLoop pins NewThresholdSq against the historic
// joiner comparison sum(d²) <= fl(eps*eps), which differs from Dist <= eps by
// up to an ulp at the boundary — exactly the semantics the series and L2
// vector joiners rely on.
func TestThresholdSqMatchesEpsSqLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		dim := 1 + rng.Intn(16)
		a := randVec(rng, dim, 5)
		b := randVec(rng, dim, 5)
		eps := rng.Float64() * 10
		if trial%7 == 0 {
			// Land exactly on the boundary.
			eps = geom.L2.Dist(a, b)
		}
		epsSq := eps * eps
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		want := s <= epsSq
		th := NewThresholdSq(eps)
		if got := th.Within(a, b); got != want {
			t.Fatalf("dim %d eps %.17g: Within = %v, epsSq loop = %v (s = %.17g)",
				dim, eps, got, want, s)
		}
	}
}

// TestMaxFloatWithin checks the bit-space search on predicates with known
// boundaries.
func TestMaxFloatWithin(t *testing.T) {
	if got := maxFloatWithin(func(v float64) bool { return v <= 1.5 }); got != 1.5 {
		t.Errorf("boundary at 1.5: got %g", got)
	}
	if got := maxFloatWithin(func(v float64) bool { return true }); !math.IsInf(got, 1) {
		t.Errorf("always-true predicate: got %g, want +Inf", got)
	}
	if got := maxFloatWithin(func(v float64) bool { return v == 0 }); got != 0 {
		t.Errorf("only-zero predicate: got %g", got)
	}
	// The L2 limit: sqrt(lim) <= eps but sqrt(next(lim)) > eps.
	for _, eps := range []float64{0.1, 1, 3.75, 1e-30, 1e30} {
		lim := maxFloatWithin(func(v float64) bool { return math.Sqrt(v) <= eps })
		if math.Sqrt(lim) > eps {
			t.Errorf("eps %g: sqrt(lim) = %g > eps", eps, math.Sqrt(lim))
		}
		if up := math.Nextafter(lim, math.Inf(1)); math.Sqrt(up) <= eps {
			t.Errorf("eps %g: lim %g not maximal", eps, lim)
		}
	}
}

// TestBoundMatchesMinDist drives random MBR pairs through Bound and the
// reference scale*MinDist comparison, with thresholds on and around the
// boundary.
func TestBoundMatchesMinDist(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range testNorms {
		for _, scale := range []float64{1, 0.25, 3.5, 1e-3} {
			for trial := 0; trial < 300; trial++ {
				dim := 1 + rng.Intn(4)
				mk := func() geom.MBR {
					m := geom.NewMBR(randVec(rng, dim, 10))
					m.ExtendPoint(randVec(rng, dim, 10))
					return m
				}
				a, c := mk(), mk()
				ref := scale * n.MinDist(a, c)
				for _, e := range []float64{ref, math.Nextafter(ref, 0),
					math.Nextafter(ref, math.Inf(1)), ref * 0.5, 0, math.Inf(1)} {
					b := NewBound(n, scale, e)
					if b == nil {
						t.Fatalf("%v scale %g: nil bound", n, scale)
					}
					if got, want := b.Within(a, c), scale*n.MinDist(a, c) <= e; got != want {
						t.Fatalf("%v scale %g eps %.17g: Within = %v, reference %.17g <= eps = %v",
							n, scale, e, got, ref, want)
					}
				}
			}
		}
	}
}

// TestBoundEmptyAndDegenerate pins the empty-MBR and bad-scale cases.
func TestBoundEmptyAndDegenerate(t *testing.T) {
	var empty geom.MBR
	full := geom.NewMBR(geom.Vector{0, 0})
	for _, n := range testNorms {
		b := NewBound(n, 1, 5)
		if got, want := b.Within(empty, full), n.MinDist(empty, full) <= 5; got != want {
			t.Errorf("%v: empty MBR Within = %v, reference = %v", n, got, want)
		}
		if b := NewBound(n, 1, math.Inf(1)); !b.Within(empty, full) {
			t.Errorf("%v: empty MBR not within +Inf eps", n)
		}
		if NewBound(n, 0, 1) != nil {
			t.Errorf("%v: non-nil bound for zero scale", n)
		}
		if NewBound(n, -1, 1) != nil {
			t.Errorf("%v: non-nil bound for negative scale", n)
		}
		if NewBound(n, math.NaN(), 1) != nil {
			t.Errorf("%v: non-nil bound for NaN scale", n)
		}
		if b := NewBound(n, 1, math.NaN()); b.Within(full, full) {
			t.Errorf("%v: within NaN eps", n)
		}
	}
}

// TestFlatPage checks construction and row access.
func TestFlatPage(t *testing.T) {
	f := NewFlatPage(3, 2)
	f.AppendRow([]float64{1, 2, 3})
	f.AppendRow([]float64{4, 5, 6})
	if f.N != 2 || f.Dim != 3 {
		t.Fatalf("N = %d, Dim = %d", f.N, f.Dim)
	}
	if r := f.Row(1); r[0] != 4 || r[2] != 6 || len(r) != 3 {
		t.Fatalf("Row(1) = %v", r)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong-width row")
		}
	}()
	f.AppendRow([]float64{1})
}

// TestPagePairWithinMatchesPerPoint checks the batch kernel emits exactly the
// indices the per-point test accepts, in ascending order, for every norm.
// On amd64 it runs once with the AVX2 row-sum kernels and once with the
// scalar blocked loops, so the two implementations are held to the same
// bit-exact contract on the same inputs.
func TestPagePairWithinMatchesPerPoint(t *testing.T) {
	modes := []bool{false}
	if hasSIMD {
		modes = []bool{true, false}
	}
	saved := useSIMD
	defer func() { useSIMD = saved }()
	for _, mode := range modes {
		useSIMD = mode
		t.Run(fmt.Sprintf("simd=%v", mode), testPagePairWithinMatchesPerPoint)
	}
}

func testPagePairWithinMatchesPerPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Dims straddle blockDim so the blocked loops (full blocks, tails, and
	// the sub-block sizes that fall back to the sequential scans) all run.
	dims := []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 19, 33, 64}
	for _, n := range testNorms {
		for trial := 0; trial < 100; trial++ {
			dim := dims[rng.Intn(len(dims))]
			np := rng.Intn(20)
			page := NewFlatPage(dim, np)
			for i := 0; i < np; i++ {
				page.AppendRow(randVec(rng, dim, 3))
			}
			probe := randVec(rng, dim, 3)
			// Besides a random threshold, test thresholds landing exactly on
			// (and one ulp off) a row's distance, which the blocked loops must
			// resolve through the exact sequential fallback.
			epss := []float64{rng.Float64() * 4}
			if np > 0 {
				if d := n.Dist(probe, page.Row(rng.Intn(np))); !math.IsNaN(d) {
					epss = append(epss, d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)))
				}
			}
			for _, eps := range epss {
				th := NewThreshold(n, eps)
				got := PagePairWithin(&th, probe, page, nil)
				var want []int
				for k := 0; k < np; k++ {
					if th.Within(probe, page.Row(k)) {
						want = append(want, k)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%v dim %d eps %.17g: batch %v vs per-point %v", n, dim, eps, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v dim %d eps %.17g: batch %v vs per-point %v", n, dim, eps, got, want)
					}
				}
			}
		}
	}
}
