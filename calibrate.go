package pmjoin

import (
	"fmt"

	"pmjoin/internal/predmat"
)

// CalibrateEpsilon returns an epsilon whose prediction matrix for joining a
// and b has approximately the target density (fraction of marked page
// pairs). It binary-searches epsilon over matrix builds; no simulated I/O is
// charged. Synthetic workloads use it to land in the same page-selectivity
// regime the paper reports (e.g. §9.1 quotes ~10% and ~2% selectivities)
// without depending on the generators' absolute coordinate scales.
//
// For string datasets the returned epsilon is an integer edit-distance
// bound, so only coarse targets are reachable.
func (s *System) CalibrateEpsilon(a, b *Dataset, target float64) (float64, error) {
	if a.kind != b.kind {
		return 0, fmt.Errorf("pmjoin: cannot calibrate across kinds %v and %v", a.kind, b.kind)
	}
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("pmjoin: target density %g outside (0,1)", target)
	}
	// The builds run on all the System's workers; no matrix depends on how
	// many there are.
	p, release := s.workers()
	defer release()
	g := p.Group(p.Workers())
	density := func(eps float64) (float64, error) {
		m, err := predmat.Build(a.ds.Root, b.ds.Root, a.ds.Pages, b.ds.Pages,
			eps, s.predictor(a), predmat.BuildOptions{FilterDepth: predmat.DefaultFilterDepth, Runner: g})
		if err != nil {
			return 0, err
		}
		return m.Density(), nil
	}

	// Find an upper bound by doubling.
	hi := 1e-6
	if a.kind == KindString {
		hi = 1
	}
	var dHi float64
	for i := 0; i < 64; i++ {
		var err error
		dHi, err = density(hi)
		if err != nil {
			return 0, err
		}
		if dHi >= target {
			break
		}
		hi *= 2
	}
	if dHi < target {
		return hi, fmt.Errorf("pmjoin: target density %g unreachable (max %g)", target, dHi)
	}
	lo := 0.0
	for i := 0; i < 24; i++ {
		mid := (lo + hi) / 2
		if a.kind == KindString {
			mid = float64(int(mid))
			if mid <= lo {
				break
			}
		}
		d, err := density(mid)
		if err != nil {
			return 0, err
		}
		if d >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
