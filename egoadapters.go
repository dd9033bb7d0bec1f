package pmjoin

import (
	"math"

	"pmjoin/internal/ego"
	"pmjoin/internal/geom"
	"pmjoin/internal/join"
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
	self bool
	// th is the precompiled threshold test, bit-identical to
	// norm.Dist(a, b) <= eps (see internal/kernel).
	th kernel.Threshold
}

func (v *vectorEGO) NumObjects(p any) int { return len(p.(*join.VectorPage).IDs) }

func (v *vectorEGO) ObjectID(p any, i int) int { return p.(*join.VectorPage).IDs[i] }

func (v *vectorEGO) GridKey(p any, i int) []int {
	vec := p.(*join.VectorPage).Vecs[i]
	key := make([]int, len(vec))
	for d, x := range vec {
		key[d] = int(math.Floor(x / v.cell))
	}
	return key
}

func (v *vectorEGO) Compare(pa any, i int, pb any, k int) (bool, float64) {
	a := pa.(*join.VectorPage)
	b := pb.(*join.VectorPage)
	cost := egoBaseCost + egoPerDimCost*float64(len(a.Vecs[i]))
	return v.th.Within(a.Vecs[i], b.Vecs[k]), cost
}

func (v *vectorEGO) SelfSkip(pa any, i int, pb any, k int) bool {
	return v.self && pa.(*join.VectorPage).IDs[i] >= pb.(*join.VectorPage).IDs[k]
}

func (v *vectorEGO) Repage(objs []ego.ObjectRef, fetch func(int) (any, error)) (any, error) {
	ids := make([]int, 0, len(objs))
	vecs := make([]geom.Vector, 0, len(objs))
	for _, o := range objs {
		p, err := fetch(o.Page)
		if err != nil {
			return nil, err
		}
		vp := p.(*join.VectorPage)
		ids = append(ids, vp.IDs[o.Slot])
		vecs = append(vecs, vp.Vecs[o.Slot])
	}
	return join.VectorPageOf(ids, vecs), nil
}

func (v *vectorEGO) Reorderable() bool { return true }

// seriesEGO adapts time-series window pages: grid keys from PAA features
// with cell width eps/scale; exact verification under raw L2. Sequence data
// cannot be reordered on disk, so Reorderable is false and the sweep pays
// random seeks to the windows' home pages (§2.1, §9.2).
type seriesEGO struct {
	cell     float64
	self     bool
	window   int
	features int
	th       kernel.Threshold // precompiled squared-L2 test against eps²
}

func (s *seriesEGO) NumObjects(p any) int { return len(p.(*join.SeriesPage).IDs) }

func (s *seriesEGO) ObjectID(p any, i int) int { return p.(*join.SeriesPage).IDs[i] }

func (s *seriesEGO) GridKey(p any, i int) []int {
	feat := mrindex.PAA(p.(*join.SeriesPage).Windows[i], s.features)
	key := make([]int, len(feat))
	for d, x := range feat {
		key[d] = int(math.Floor(x / s.cell))
	}
	return key
}

func (s *seriesEGO) Compare(pa any, i int, pb any, k int) (bool, float64) {
	a := pa.(*join.SeriesPage)
	b := pb.(*join.SeriesPage)
	wa, wb := a.Windows[i], b.Windows[k]
	cost := egoBaseCost + egoPerDimCost*float64(len(wa))
	return s.th.Within(wa, wb), cost
}

func (s *seriesEGO) SelfSkip(pa any, i int, pb any, k int) bool {
	if !s.self {
		return false
	}
	a := pa.(*join.SeriesPage)
	b := pb.(*join.SeriesPage)
	if a.IDs[i] >= b.IDs[k] {
		return true
	}
	d := a.Starts[i] - b.Starts[k]
	if d < 0 {
		d = -d
	}
	return d < s.window
}

func (s *seriesEGO) Repage([]ego.ObjectRef, func(int) (any, error)) (any, error) {
	panic("pmjoin: series data cannot be reordered")
}

func (s *seriesEGO) Reorderable() bool { return false }

// stringEGO adapts string window pages: grid keys from frequency vectors
// with integer cell width maxEdit; verification via frequency distance then
// banded edit distance. Not reorderable (§2.1).
type stringEGO struct {
	maxEdit int
	cell    int
	self    bool
	window  int
}

func (s *stringEGO) NumObjects(p any) int { return len(p.(*join.StringPage).IDs) }

func (s *stringEGO) ObjectID(p any, i int) int { return p.(*join.StringPage).IDs[i] }

func (s *stringEGO) GridKey(p any, i int) []int {
	f := p.(*join.StringPage).Freqs[i]
	key := make([]int, len(f))
	for d, x := range f {
		key[d] = x / s.cell
	}
	return key
}

func (s *stringEGO) Compare(pa any, i int, pb any, k int) (bool, float64) {
	a := pa.(*join.StringPage)
	b := pb.(*join.StringPage)
	cost := egoBaseCost + egoPerDimCost*float64(len(a.Freqs[i]))
	if seqdist.FreqDistance(a.Freqs[i], b.Freqs[k]) > s.maxEdit {
		return false, cost
	}
	cost += float64(2*s.maxEdit+1) * float64(len(a.Windows[i])) * egoEditCell
	_, ok := seqdist.EditDistanceBounded(a.Windows[i], b.Windows[k], s.maxEdit)
	return ok, cost
}

func (s *stringEGO) SelfSkip(pa any, i int, pb any, k int) bool {
	if !s.self {
		return false
	}
	a := pa.(*join.StringPage)
	b := pb.(*join.StringPage)
	if a.IDs[i] >= b.IDs[k] {
		return true
	}
	d := a.Starts[i] - b.Starts[k]
	if d < 0 {
		d = -d
	}
	return d < s.window
}

func (s *stringEGO) Repage([]ego.ObjectRef, func(int) (any, error)) (any, error) {
	panic("pmjoin: string data cannot be reordered")
}

func (s *stringEGO) Reorderable() bool { return false }
