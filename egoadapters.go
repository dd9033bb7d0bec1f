package pmjoin

import (
	"math"

	"pmjoin/internal/disk"
	"pmjoin/internal/kernel"
	"pmjoin/internal/mrindex"
	"pmjoin/internal/seqdist"
)

// Modeled CPU costs of one EGO candidate verification, mirroring the join
// package's comparison model.
const (
	egoBaseCost   = 10e-9
	egoPerDimCost = 5e-9
	egoEditCell   = 2e-9
)

// vectorEGO adapts vector pages to the EGO join: grid cells of width eps,
// exact verification under the norm.
type vectorEGO struct {
	cell float64
	// th is the precompiled threshold test, bit-identical to
	// norm.Dist(a, b) <= eps (see internal/kernel).
	th kernel.Threshold
}

func (v *vectorEGO) GridKey(pg *disk.Page, i int) []int {
	vec := pg.Flat.Row(i)
	key := make([]int, len(vec))
	for d, x := range vec {
		key[d] = int(math.Floor(x / v.cell))
	}
	return key
}

func (v *vectorEGO) Compare(a *disk.Page, i int, b *disk.Page, k int) (bool, float64) {
	cost := egoBaseCost + egoPerDimCost*float64(a.Flat.Dim)
	return v.th.Within(a.Flat.Row(i), b.Flat.Row(k)), cost
}

// seriesEGO adapts time-series window pages: grid keys from PAA features
// with cell width eps/scale; exact verification under raw L2. Sequence data
// cannot be reordered on disk, so the sweep pays random seeks to the
// windows' home pages (§2.1, §9.2).
type seriesEGO struct {
	cell     float64
	features int
	th       kernel.Threshold // precompiled squared-L2 test against eps²
}

func (s *seriesEGO) GridKey(pg *disk.Page, i int) []int {
	feat := mrindex.PAA(pg.Flat.Row(i), s.features)
	key := make([]int, len(feat))
	for d, x := range feat {
		key[d] = int(math.Floor(x / s.cell))
	}
	return key
}

func (s *seriesEGO) Compare(a *disk.Page, i int, b *disk.Page, k int) (bool, float64) {
	cost := egoBaseCost + egoPerDimCost*float64(a.Flat.Dim)
	return s.th.Within(a.Flat.Row(i), b.Flat.Row(k)), cost
}

// stringEGO adapts string window pages: grid keys from frequency vectors
// with integer cell width maxEdit; verification via frequency distance then
// banded edit distance. Not reorderable (§2.1).
type stringEGO struct {
	maxEdit int
	cell    int
}

func (s *stringEGO) GridKey(pg *disk.Page, i int) []int {
	f := pg.Freqs[i]
	key := make([]int, len(f))
	for d, x := range f {
		key[d] = x / s.cell
	}
	return key
}

func (s *stringEGO) Compare(a *disk.Page, i int, b *disk.Page, k int) (bool, float64) {
	cost := egoBaseCost + egoPerDimCost*float64(len(a.Freqs[i]))
	if seqdist.FreqDistance(a.Freqs[i], b.Freqs[k]) > s.maxEdit {
		return false, cost
	}
	cost += float64(2*s.maxEdit+1) * float64(len(a.Windows[i])) * egoEditCell
	_, ok := seqdist.EditDistanceBounded(a.Windows[i], b.Windows[k], s.maxEdit)
	return ok, cost
}
