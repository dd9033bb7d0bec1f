package kernel

import (
	"math"

	"pmjoin/internal/geom"
)

// Bound is a precompiled MBR lower-bound ε-test: Within(a, b) reports
// scale * n.MinDist(a, b) <= eps bit-identically to that reference
// computation — for prediction-matrix construction and index joins, where
// the reference allocates a gap vector and computes a full distance per
// node pair. Bound walks the dimensions once with per-dimension early
// abandon and no allocation.
//
// A Bound is immutable after construction and safe for concurrent use.
type Bound struct {
	t Threshold
	// scale multiplies MinDist in the reference (predictors restoring a
	// dimensionality-reduced bound); the statistic limits in t fold it in.
	scale float64
	// emptyWithin is the precomputed outcome for empty MBRs, whose MinDist
	// is +Inf: fl(scale*Inf) <= eps.
	emptyWithin bool
}

// NewBound returns the test equivalent to scale*n.MinDist(a, b) <= eps, or
// nil when no exactness guarantee can be given (scale zero, negative or NaN
// — callers fall back to the reference path). A scale of 1 reproduces plain
// MinDist.
func NewBound(n geom.Norm, scale, eps float64) *Bound {
	if math.IsNaN(scale) || scale <= 0 {
		return nil
	}
	b := &Bound{scale: scale, emptyWithin: scale*math.Inf(1) <= eps}
	b.t.p = n.P
	if math.IsNaN(eps) || eps < 0 {
		// The scaled distance is non-negative or NaN; the comparison is
		// always false.
		b.t.never = true
		return b
	}
	switch n.P {
	case 0, 1:
		// Statistic is the gap distance itself: largest t with
		// fl(scale*t) <= eps. Multiplication by a positive constant is
		// monotone under correct rounding, so the bit-search boundary is
		// exact.
		b.t.lim = maxFloatWithin(func(v float64) bool { return scale*v <= eps })
	case 2:
		// Largest t with fl(scale*fl(sqrt(t))) <= eps; the composition of
		// two monotone correctly rounded maps is monotone.
		b.t.lim = maxFloatWithin(func(v float64) bool { return scale*math.Sqrt(v) <= eps })
	default:
		b.t.setPowBand(n.P, scale, eps)
	}
	return b
}

// Within reports whether the scaled MBR lower-bound distance between a and b
// passes the threshold. It reproduces geom.Norm.MinDist exactly: the same
// emptiness test, the same gap arithmetic per dimension, the same
// accumulation order.
func (b *Bound) Within(a, c geom.MBR) bool {
	if a.IsEmpty() || c.IsEmpty() {
		return b.emptyWithin
	}
	return b.WithinNonEmpty(a, c)
}

// WithinNonEmpty is Within for two MBRs of equal dimensionality that the
// caller already knows to be non-empty, so it skips the emptiness tests.
func (b *Bound) WithinNonEmpty(a, c geom.MBR) bool {
	if b.t.never {
		return false
	}
	t := &b.t
	switch t.p {
	case 0:
		lim := t.lim
		for i := range a.Min {
			if g := gapDim(a, c, i); g > lim {
				return false
			}
		}
		return true
	case 1:
		var s float64
		lim := t.lim
		for i := range a.Min {
			s += gapDim(a, c, i)
			if s > lim {
				return false
			}
		}
		return s <= lim
	case 2:
		var s float64
		lim := t.lim
		for i := range a.Min {
			g := gapDim(a, c, i)
			s += g * g
			if s > lim {
				return false
			}
		}
		return s <= lim
	default:
		var s float64
		for i := range a.Min {
			s += geom.PowInt(gapDim(a, c, i), t.p)
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

// WithinPoint is Within for a point against an MBR, mirroring
// geom.Norm.MinDistPoint.
func (b *Bound) WithinPoint(p []float64, m geom.MBR) bool {
	if m.IsEmpty() {
		return b.emptyWithin
	}
	if b.t.never {
		return false
	}
	t := &b.t
	switch t.p {
	case 0:
		lim := t.lim
		for i, pv := range p {
			if g := gapPointDim(pv, m, i); g > lim {
				return false
			}
		}
		return true
	case 1:
		var s float64
		lim := t.lim
		for i, pv := range p {
			s += gapPointDim(pv, m, i)
			if s > lim {
				return false
			}
		}
		return s <= lim
	case 2:
		var s float64
		lim := t.lim
		for i, pv := range p {
			g := gapPointDim(pv, m, i)
			s += g * g
			if s > lim {
				return false
			}
		}
		return s <= lim
	default:
		var s float64
		for i, pv := range p {
			s += geom.PowInt(gapPointDim(pv, m, i), t.p)
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

// gapDim is the per-dimension separation of two MBRs — the same three-way
// branch MinDist uses, yielding 0 when the extents overlap. The result is
// never negative (NaN extents take the overlap branch, as in the reference).
func gapDim(a, c geom.MBR, i int) float64 {
	switch {
	case c.Min[i] > a.Max[i]:
		return c.Min[i] - a.Max[i]
	case a.Min[i] > c.Max[i]:
		return a.Min[i] - c.Max[i]
	default:
		return 0
	}
}

// gapPointDim is the per-dimension separation of a point and an MBR,
// mirroring MinDistPoint.
func gapPointDim(p float64, m geom.MBR, i int) float64 {
	switch {
	case p < m.Min[i]:
		return m.Min[i] - p
	case p > m.Max[i]:
		return p - m.Max[i]
	default:
		return 0
	}
}
