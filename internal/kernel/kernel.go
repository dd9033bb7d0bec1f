// Package kernel provides the allocation-free, threshold-aware CPU kernels
// behind every ε-test of the join framework: point-pair tests with running-sum
// early abandon, a batched page-pair kernel over flat contiguous page blocks
// (on amd64, AVX2 row-sum kernels that stop a row after its first 8
// coordinates once it is certainly out of range), and MBR lower-bound tests
// for prediction-matrix construction.
//
// Every kernel is an exact drop-in for a reference comparison: Threshold
// decides norm.Dist(a,b) <= eps (or the historical squared-L2 form) without
// computing the distance, and Bound decides scale*norm.MinDist(a,b) <= eps
// without allocating gap vectors. Exactness is what lets the kernels be the
// engine's only comparison path — Report, Pairs and Plan are those of the
// reference loops, bit for bit — and it is enforced by FuzzKernelVsReference.
//
// The trick for L2 is comparing the running sum of squares against a
// precomputed limit instead of taking a square root per pair. The limit is
// not fl(eps²): that would misclassify sums within an ulp of the boundary.
// Instead it is the largest float64 t with fl(sqrt(t)) <= eps, found by
// binary search over the bit representation (non-negative floats sort by
// their bits, and correctly rounded sqrt is monotone, so the predicate is
// monotone and the boundary exact). L1 and L∞ compare partial sums or single
// coordinates directly against eps. For p >= 3 the sum of PowInt powers is
// compared against a conservative band around eps^p; only sums inside the
// band — a ~1e-9 relative sliver — fall back to the reference math.Pow root.
package kernel

import (
	"math"

	"pmjoin/internal/geom"
)

// Threshold is a precompiled point-pair ε-test under an Lp norm. The zero
// value is not meaningful; build one with NewThreshold or NewThresholdSq once
// per page pair (or per join) and reuse it across pairs.
type Threshold struct {
	p   int     // norm exponent; 0 = L∞
	lim float64 // accept limit on the accumulated statistic (p <= 2)

	// p >= 3 only: fast-accept / fast-reject band on the power sum, and the
	// exact fallback parameters reproducing the reference computation.
	// scale is 1 for point tests; Bound reuses the band with its predictor
	// scale folded in.
	lo, hi float64
	invP   float64
	eps    float64
	scale  float64

	// never short-circuits to false (negative or NaN eps under Dist
	// semantics: no distance satisfies the comparison).
	never bool
}

// NewThreshold returns the test equivalent to n.Dist(a, b) <= eps for ALL
// float64 inputs, boundary and non-finite cases included.
func NewThreshold(n geom.Norm, eps float64) Threshold {
	t := Threshold{p: n.P}
	if math.IsNaN(eps) || eps < 0 {
		// Dist is non-negative (or NaN); either way the comparison is false.
		t.never = true
		return t
	}
	switch n.P {
	case 0, 1:
		// The statistic (max coordinate gap, running L1 sum) is the distance
		// itself; compare it against eps directly.
		t.lim = eps
	case 2:
		// Largest t with fl(sqrt(t)) <= eps: s <= lim <=> fl(sqrt(s)) <= eps.
		t.lim = maxFloatWithin(func(v float64) bool { return math.Sqrt(v) <= eps })
	default:
		t.setPowBand(n.P, 1, eps)
	}
	return t
}

// NewThresholdSq returns the L2 test equivalent to the classic squared
// comparison sum((a[i]-b[i])²) <= fl(eps*eps) — the historical joiner hot
// path, which differs from Dist() <= eps by at most an ulp at the boundary.
// It matches that reference for all inputs, including negative or NaN eps.
func NewThresholdSq(eps float64) Threshold {
	// NaN eps propagates: s <= NaN is always false, same as the reference.
	return Threshold{p: 2, lim: eps * eps}
}

// setPowBand precomputes the p>=3 band around (eps/scale)^p. Sums at or
// below lo are certainly within, sums above hi certainly not; anything in
// between reruns the reference formula fl(scale*fl(Pow(s, 1/p))) <= eps.
func (t *Threshold) setPowBand(p int, scale, eps float64) {
	t.p = p
	t.invP = 1 / float64(p)
	t.eps = eps
	t.scale = scale
	if math.IsInf(eps, 1) {
		// Every non-NaN sum is within; NaN sums fall through to the exact
		// fallback, which rejects them.
		t.lo, t.hi = math.Inf(1), math.Inf(1)
		return
	}
	b0 := geom.PowInt(eps/scale, p)
	switch {
	case math.IsInf(b0, 1):
		// eps^p overflows: any finite sum is within by a 2^10/p exponent
		// margin; only infinite sums reach the fallback.
		t.lo, t.hi = math.MaxFloat64/1024, math.Inf(1)
	case b0 < 1e-290:
		// Near or below the subnormal range the relative error of b0 is
		// unbounded; skip the band entirely (thresholds this small never
		// occur in practice, so losing the fast path costs nothing).
		t.lo, t.hi = 0, math.Inf(1)
	default:
		// Band wide enough to absorb the PowInt construction error
		// (~p·2⁻⁵³ relative), the eps/scale division and the fallback's own
		// Pow/multiply rounding, with orders of magnitude to spare.
		band := 1e-9 + float64(p)*3e-13
		t.lo = b0 * (1 - band)
		t.hi = b0 * (1 + band)
	}
}

// Within reports whether the distance between a and b passes the threshold.
// The slices must have equal length (the batched kernels guarantee it);
// unequal lengths index out of range just like the reference loops.
func (t *Threshold) Within(a, b []float64) bool {
	if t.never {
		return false
	}
	switch t.p {
	case 0:
		lim := t.lim
		for i, av := range a {
			d := av - b[i]
			if d < 0 {
				d = -d
			}
			// NaN coordinates fail the >, matching Dist's max (NaN > m is
			// false there too).
			if d > lim {
				return false
			}
		}
		return true
	case 1:
		var s float64
		lim := t.lim
		for i, av := range a {
			d := av - b[i]
			if d < 0 {
				d = -d
			}
			s += d
			if s > lim {
				return false
			}
		}
		return s <= lim
	case 2:
		var s float64
		lim := t.lim
		for i, av := range a {
			d := av - b[i]
			s += d * d
			if s > lim {
				return false
			}
		}
		// The final <= (not a bare true) rejects NaN sums, which never
		// trigger the > abandon.
		return s <= lim
	default:
		var s float64
		for i, av := range a {
			d := av - b[i]
			if d < 0 {
				d = -d
			}
			s += geom.PowInt(d, t.p)
			if s > t.hi {
				return false
			}
		}
		if s <= t.lo {
			return true
		}
		return t.scale*math.Pow(s, t.invP) <= t.eps
	}
}

// maxFloatWithin returns the largest non-negative float64 t (possibly +Inf)
// for which ok(t) holds, given that ok is monotone (true up to some boundary,
// false beyond) and ok(0) is true. Non-negative floats including +Inf order
// identically to their bit patterns, so this is a ~64-step binary search in
// bit space — robust even where rounding plateaus make ulp-walking
// intractable (subnormal results of sqrt or scale multiplication).
func maxFloatWithin(ok func(float64) bool) float64 {
	if ok(math.Inf(1)) {
		return math.Inf(1)
	}
	lo, hi := uint64(0), math.Float64bits(math.Inf(1)) // ok(lo) && !ok(hi)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if ok(math.Float64frombits(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(lo)
}
