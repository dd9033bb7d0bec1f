package pmjoin

import (
	"math"

	"pmjoin/internal/disk"
	"pmjoin/internal/mrindex"
)

// vectorEGO adapts vector pages to the EGO grid: cells of width eps.
type vectorEGO struct {
	cell float64
}

func (v *vectorEGO) GridKey(pg *disk.Page, i int) []int {
	vec := pg.Flat.Row(i)
	key := make([]int, len(vec))
	for d, x := range vec {
		key[d] = int(math.Floor(x / v.cell))
	}
	return key
}

// seriesEGO adapts time-series window pages: grid keys from PAA features
// with cell width eps/scale. Sequence data cannot be reordered on disk, so
// the sweep pays random seeks to the windows' home pages (§2.1, §9.2).
type seriesEGO struct {
	cell     float64
	features int
}

func (s *seriesEGO) GridKey(pg *disk.Page, i int) []int {
	feat := mrindex.PAA(pg.Flat.Row(i), s.features)
	key := make([]int, len(feat))
	for d, x := range feat {
		key[d] = int(math.Floor(x / s.cell))
	}
	return key
}

// stringEGO adapts string window pages: grid keys from frequency vectors
// with integer cell width maxEdit. Not reorderable (§2.1).
type stringEGO struct {
	cell int
}

func (s *stringEGO) GridKey(pg *disk.Page, i int) []int {
	f := pg.Freqs[i]
	key := make([]int, len(f))
	for d, x := range f {
		key[d] = x / s.cell
	}
	return key
}
