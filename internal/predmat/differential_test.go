package predmat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pmjoin/internal/geom"
	"pmjoin/internal/index"
)

// fourAtATime is a Runner that lets four sub-sweeps run concurrently. Build
// waits for every task it submitted, so nothing outlives the call.
type fourAtATime chan struct{}

func (r fourAtATime) Run(task func()) {
	go func() {
		r <- struct{}{}
		defer func() { <-r }()
		task()
	}()
}

// randHierarchy builds a hierarchy over nLeaves random boxes strung along
// the diagonal of [0, spread]^dim — so that boxes meet in every dimension or
// in none, whatever dim is — grouped fanout at a time. About a quarter of the
// leaves are empty in one of the ways an index can produce or a caller can
// hand in: the canonical empty MBR, a zero-dimensional one (only when
// zeroDim is set, and never first in its group: the reference reads the
// dimensionality off the first box), and a box inverted in one dimension by
// less than the small ε, which extension turns non-empty. Points and boxes
// snapped to a grid make left and right endpoints coincide.
func randHierarchy(rng *rand.Rand, dim, nLeaves, fanout int, spread float64, zeroDim bool) *index.Node {
	level := make([]*index.Node, nLeaves)
	for p := range level {
		m := geom.MBR{Min: make(geom.Vector, dim), Max: make(geom.Vector, dim)}
		t := rng.Float64()
		for d := 0; d < dim; d++ {
			m.Min[d] = spread * (t + rng.Float64()/32)
			m.Max[d] = m.Min[d] + spread*rng.Float64()/8
		}
		switch rng.Intn(12) {
		case 0:
			m = geom.EmptyMBR(dim)
		case 1:
			if zeroDim && p%fanout != 0 {
				m = geom.MBR{}
			} else {
				m = geom.EmptyMBR(dim)
			}
		case 2:
			d := rng.Intn(dim)
			m.Min[d] = m.Max[d] + spread/64
		case 3, 4: // a point
			copy(m.Max, m.Min)
		case 5, 6: // corners on a grid, so boxes touch and endpoints tie
			for d := 0; d < dim; d++ {
				m.Min[d] = math.Floor(m.Min[d]*8/spread) * spread / 8
				m.Max[d] = math.Ceil(m.Max[d]*8/spread) * spread / 8
			}
		}
		level[p] = &index.Node{MBR: m, Page: p}
	}
	for len(level) > 1 {
		var up []*index.Node
		for i := 0; i < len(level); i += fanout {
			kids := level[i:min(i+fanout, len(level))]
			m := geom.EmptyMBR(dim)
			for _, k := range kids {
				m.ExtendMBR(k.MBR)
			}
			up = append(up, &index.Node{MBR: m, Page: -1, Children: kids})
		}
		level = up
	}
	return level[0]
}

// sameAsReference builds the matrix both ways and fails on any difference in
// the entries or in the four counters.
func sameAsReference(t *testing.T, name string, r, s *index.Node, rPages, sPages int, eps float64, depth int, runner Runner) {
	t.Helper()
	pred := NormPredictor{Norm: geom.L2}
	var got, want BuildStats
	gm, err := Build(r, s, rPages, sPages, eps, pred, BuildOptions{FilterDepth: depth, Stats: &got, Runner: runner})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wm, err := refBuild(r, s, rPages, sPages, eps, pred, BuildOptions{FilterDepth: depth, Stats: &want, Runner: runner})
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if got != want {
		t.Fatalf("%s: stats %+v, want %+v", name, got, want)
	}
	ge, we := gm.Entries(), wm.Entries()
	if len(ge) != len(we) {
		t.Fatalf("%s: %d entries, want %d", name, len(ge), len(we))
	}
	for i := range we {
		if ge[i] != we[i] {
			t.Fatalf("%s: entry %d is %v, want %v", name, i, ge[i], we[i])
		}
	}
}

// TestBuildMatchesReference is the differential test of the flat-scratch
// sweep and filter: on random hierarchies of unequal height, with empty
// leaves among them, Build must mark the same entries and count the same
// events, pair tests, filter drops and recursions as the reference —
// inline and with sub-sweeps running four at a time.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const spread = 4.0
	pool := make(fourAtATime, 4)
	for _, dim := range []int{2, 60} {
		for trial := 0; trial < 12; trial++ {
			rPages, sPages := 1+rng.Intn(60), 1+rng.Intn(40)
			for _, depth := range []int{0, 1, 5} {
				r := randHierarchy(rng, dim, rPages, 2+rng.Intn(6), spread, depth > 0)
				s := randHierarchy(rng, dim, sPages, 2+rng.Intn(9), spread, depth > 0)
				for _, eps := range []float64{0, spread / 16, 2 * spread * math.Sqrt(float64(dim))} {
					for _, runner := range []Runner{nil, pool} {
						name := fmt.Sprintf("dim=%d/trial=%d/depth=%d/eps=%g/runner=%v", dim, trial, depth, eps, runner != nil)
						sameAsReference(t, name, r, s, rPages, sPages, eps, depth, runner)
					}
				}
			}
		}
	}
}

// TestFilterAllocatesNothingPerBox guards the point of the flat scratch: a
// filter call's allocations must not grow with boxes × rounds. Once the
// scratch has its capacity, a call over 32 × 32 overlapping 60-d boxes
// allocates nothing at all.
func TestFilterAllocatesNothingPerBox(t *testing.T) {
	const dim, perSide = 60, 32
	rng := rand.New(rand.NewSource(37))
	var sides [2][]*index.Node
	for s := range sides {
		for p := 0; p < perSide; p++ {
			m := geom.MBR{Min: make(geom.Vector, dim), Max: make(geom.Vector, dim)}
			for d := 0; d < dim; d++ {
				m.Min[d] = rng.Float64()
				m.Max[d] = m.Min[d] + 1 + rng.Float64()
			}
			sides[s] = append(sides[s], &index.Node{MBR: m, Page: p})
		}
	}
	b := &builder{opts: BuildOptions{FilterDepth: DefaultFilterDepth}}
	sc := new(sweepScratch)
	nR, _ := sc.load(sides[0], sides[1], 0.01)
	var st BuildStats
	allocs := testing.AllocsPerRun(20, func() {
		st = BuildStats{}
		rAlive, sAlive := b.filter(sc, nR, dim, &st)
		if len(rAlive) != perSide || len(sAlive) != perSide {
			t.Fatalf("filter kept %d × %d boxes of %d × %d overlapping ones", len(rAlive), len(sAlive), perSide, perSide)
		}
	})
	if allocs != 0 {
		t.Fatalf("filter over %d × %d boxes allocates %v objects per call, want 0", perSide, perSide, allocs)
	}
}
