package geom

import (
	"fmt"
	"math"
)

// MBR is a minimum bounding rectangle in d dimensions. An MBR with no
// dimensions or with Min[i] > Max[i] in any dimension is empty.
type MBR struct {
	Min, Max Vector
}

// NewMBR returns an MBR covering exactly the point p.
func NewMBR(p Vector) MBR {
	return MBR{Min: p.Clone(), Max: p.Clone()}
}

// EmptyMBR returns the canonical empty MBR of dimensionality d: every
// dimension is inverted so that any ExtendPoint fixes it.
func EmptyMBR(d int) MBR {
	m := MBR{Min: make(Vector, d), Max: make(Vector, d)}
	for i := 0; i < d; i++ {
		m.Min[i] = math.Inf(1)
		m.Max[i] = math.Inf(-1)
	}
	return m
}

// Dim returns the dimensionality.
func (m MBR) Dim() int { return len(m.Min) }

// IsEmpty reports whether the MBR contains no points.
func (m MBR) IsEmpty() bool {
	if len(m.Min) == 0 {
		return true
	}
	for i := range m.Min {
		if m.Min[i] > m.Max[i] {
			return true
		}
	}
	return false
}

// Clone returns a deep copy.
func (m MBR) Clone() MBR { return MBR{Min: m.Min.Clone(), Max: m.Max.Clone()} }

func (m MBR) String() string { return fmt.Sprintf("MBR[%v..%v]", m.Min, m.Max) }

// ExtendPoint grows the MBR in place to cover p.
func (m *MBR) ExtendPoint(p Vector) {
	for i := range p {
		if p[i] < m.Min[i] {
			m.Min[i] = p[i]
		}
		if p[i] > m.Max[i] {
			m.Max[i] = p[i]
		}
	}
}

// ExtendMBR grows the MBR in place to cover o.
func (m *MBR) ExtendMBR(o MBR) {
	if o.IsEmpty() {
		return
	}
	for i := range o.Min {
		if o.Min[i] < m.Min[i] {
			m.Min[i] = o.Min[i]
		}
		if o.Max[i] > m.Max[i] {
			m.Max[i] = o.Max[i]
		}
	}
}

// Union returns the smallest MBR covering both a and b.
func Union(a, b MBR) MBR {
	if a.IsEmpty() {
		return b.Clone()
	}
	if b.IsEmpty() {
		return a.Clone()
	}
	out := a.Clone()
	out.ExtendMBR(b)
	return out
}

// Intersect returns the intersection of a and b (possibly empty).
func Intersect(a, b MBR) MBR {
	if a.IsEmpty() || b.IsEmpty() {
		return EmptyMBR(a.Dim())
	}
	out := MBR{Min: make(Vector, a.Dim()), Max: make(Vector, a.Dim())}
	for i := range a.Min {
		out.Min[i] = math.Max(a.Min[i], b.Min[i])
		out.Max[i] = math.Min(a.Max[i], b.Max[i])
	}
	return out
}

// Intersects reports whether a and b overlap (closed rectangles).
func (m MBR) Intersects(o MBR) bool {
	if m.IsEmpty() || o.IsEmpty() {
		return false
	}
	for i := range m.Min {
		if m.Max[i] < o.Min[i] || o.Max[i] < m.Min[i] {
			return false
		}
	}
	return true
}

// Contains reports whether p lies inside the closed rectangle.
func (m MBR) Contains(p Vector) bool {
	if m.IsEmpty() {
		return false
	}
	for i := range p {
		if p[i] < m.Min[i] || p[i] > m.Max[i] {
			return false
		}
	}
	return true
}

// ContainsMBR reports whether o lies entirely inside m.
func (m MBR) ContainsMBR(o MBR) bool {
	if m.IsEmpty() || o.IsEmpty() {
		return false
	}
	for i := range m.Min {
		if o.Min[i] < m.Min[i] || o.Max[i] > m.Max[i] {
			return false
		}
	}
	return true
}

// Extended returns a copy of the MBR grown by r in every direction (the
// paper's prediction-matrix construction extends MBRs by ε/2 in all
// directions so that extended-MBR intersection implies MinDist < ε under L∞;
// for other norms it remains a conservative — i.e. complete — predictor).
func (m MBR) Extended(r float64) MBR {
	out := m.Clone()
	for i := range out.Min {
		out.Min[i] -= r
		out.Max[i] += r
	}
	return out
}

// MinDist returns the minimum Lp distance between any point of a and any
// point of b. It is 0 when the rectangles overlap. MinDist lower-bounds the
// distance between any pair of points contained in a and b, which is the
// lower-bounding predictor property the prediction matrix relies on
// (Theorem 1).
func (n Norm) MinDist(a, b MBR) float64 {
	if a.IsEmpty() || b.IsEmpty() {
		return math.Inf(1)
	}
	gap := make(Vector, a.Dim())
	for i := range a.Min {
		switch {
		case b.Min[i] > a.Max[i]:
			gap[i] = b.Min[i] - a.Max[i]
		case a.Min[i] > b.Max[i]:
			gap[i] = a.Min[i] - b.Max[i]
		default:
			gap[i] = 0
		}
	}
	zero := make(Vector, a.Dim())
	return n.Dist(gap, zero)
}
