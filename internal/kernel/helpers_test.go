package kernel

import (
	"fmt"

	"pmjoin/internal/geom"
)

// WithinDist reports n.Dist(a, b) <= eps without computing the distance:
// no sqrt for L2, no Pow for integer p, and early abandon as soon as the
// partial statistic exceeds the threshold. It matches the reference
// comparison bit-for-bit for every input, boundary cases included. Like
// Dist, it panics on a dimension mismatch.
//
// For repeated tests under one threshold, build the Threshold once instead.
func WithinDist(a, b []float64, n geom.Norm, eps float64) bool {
	if len(a) != len(b) {
		panic(fmt.Sprintf("kernel: dimension mismatch %d vs %d", len(a), len(b)))
	}
	t := NewThreshold(n, eps)
	return t.Within(a, b)
}
