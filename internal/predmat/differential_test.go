package predmat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pmjoin/internal/geom"
	"pmjoin/internal/index"
	"pmjoin/internal/pool"
)

// workerGroup returns a group that runs up to n sub-sweeps at once on a
// pool of n workers, closed when tb ends; nil, inline, when n < 2.
func workerGroup(tb testing.TB, n int) *pool.Group {
	p := pool.New(n)
	tb.Cleanup(p.Close)
	return p.Group(n)
}

// randHierarchy builds a hierarchy over nLeaves random boxes strung along
// the diagonal of [0, spread]^dim — so that boxes meet in every dimension or
// in none, whatever dim is — grouped fanout at a time, perPage consecutive
// leaves on a page as index.Windows lays them out. About a quarter of the
// leaves are empty in one of the ways an index can produce or a caller can
// hand in: the canonical empty MBR, a zero-dimensional one (only when
// zeroDim is set, and never first in its group: the reference reads the
// dimensionality off the first box), and a box inverted in one dimension by
// less than the small ε, which extension turns non-empty. Points and boxes
// snapped to a grid make left and right endpoints coincide.
func randHierarchy(rng *rand.Rand, dim, nLeaves, perPage, fanout int, spread float64, zeroDim bool) *index.Node {
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
		level[p] = &index.Node{MBR: m, Page: p / perPage}
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
func sameAsReference(t *testing.T, name string, r, s *index.Node, rPages, sPages int, eps float64, depth int, runner *pool.Group) {
	t.Helper()
	if got, want := sameEntriesAsReference(t, name, r, s, rPages, sPages, eps, depth, runner); got != want {
		t.Fatalf("%s: stats %+v, want %+v", name, got, want)
	}
}

// sameEntriesAsReference builds the matrix both ways, fails on any
// difference in the entries, and returns the two builds' counters.
func sameEntriesAsReference(t *testing.T, name string, r, s *index.Node, rPages, sPages int, eps float64, depth int, runner *pool.Group) (got, want BuildStats) {
	t.Helper()
	pred := NormPredictor{Norm: geom.L2}
	gm, err := Build(r, s, rPages, sPages, eps, pred, BuildOptions{FilterDepth: depth, Stats: &got, Runner: runner})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wm, err := refBuild(r, s, rPages, sPages, eps, pred, BuildOptions{FilterDepth: depth, Stats: &want, Runner: runner})
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
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
	return got, want
}

// TestBuildMatchesReference is the differential test of the flat-scratch
// sweep and filter: on random hierarchies of unequal height, with empty
// leaves among them, Build must mark the same entries and count the same
// events, pair tests, filter drops and recursions as the reference —
// inline and with sub-sweeps running four at a time.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const spread = 4.0
	workers := workerGroup(t, 4)
	for _, dim := range []int{2, 60} {
		for trial := 0; trial < 12; trial++ {
			rPages, sPages := 1+rng.Intn(60), 1+rng.Intn(40)
			for _, depth := range []int{0, 1, 5} {
				r := randHierarchy(rng, dim, rPages, 1, 2+rng.Intn(6), spread, depth > 0)
				s := randHierarchy(rng, dim, sPages, 1, 2+rng.Intn(9), spread, depth > 0)
				for _, eps := range []float64{0, spread / 16, 2 * spread * math.Sqrt(float64(dim))} {
					for _, runner := range []*pool.Group{nil, workers} {
						name := fmt.Sprintf("dim=%d/trial=%d/depth=%d/eps=%g/runner=%v", dim, trial, depth, eps, runner != nil)
						sameAsReference(t, name, r, s, rPages, sPages, eps, depth, runner)
					}
				}
			}
		}
	}
	// One level of 130–199 leaves a side: at 60-d the filter runs a round
	// only on sweeps this wide.
	for trial := 0; trial < 3; trial++ {
		rPages, sPages := 130+rng.Intn(70), 130+rng.Intn(70)
		r := randHierarchy(rng, 60, rPages, 1, rPages, spread, true)
		s := randHierarchy(rng, 60, sPages, 1, sPages, spread, true)
		for _, depth := range []int{1, 5} {
			for _, runner := range []*pool.Group{nil, workers} {
				name := fmt.Sprintf("dim=60/wide trial=%d/depth=%d/runner=%v", trial, depth, runner != nil)
				sameAsReference(t, name, r, s, rPages, sPages, spread/16, depth, runner)
			}
		}
	}
}

// TestSharedPageBuildMatchesReference is the differential test of page-pair
// saturation: on random hierarchies with several consecutive leaves a page,
// grouped as index.Windows groups them, with empty leaves among them, Build
// must mark the reference's entries inline and with sub-sweeps running four
// at a time, and count the same in both. Its pair tests must fall below the
// reference's on some draw, or the saturating path never ran.
func TestSharedPageBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const spread = 4.0
	workers := workerGroup(t, 4)
	saved := false
	for _, dim := range []int{2, 4} {
		for trial := 0; trial < 10; trial++ {
			rLeaves, sLeaves := 1+rng.Intn(100), 1+rng.Intn(70)
			rPer, sPer := 2+rng.Intn(7), 2+rng.Intn(7)
			rPages, sPages := (rLeaves+rPer-1)/rPer, (sLeaves+sPer-1)/sPer
			for _, depth := range []int{0, 1, 5} {
				r := randHierarchy(rng, dim, rLeaves, rPer, 2+rng.Intn(16), spread, depth > 0)
				s := randHierarchy(rng, dim, sLeaves, sPer, 2+rng.Intn(16), spread, depth > 0)
				for _, eps := range []float64{0, spread / 16, 2 * spread * math.Sqrt(float64(dim))} {
					name := fmt.Sprintf("dim=%d/trial=%d/depth=%d/eps=%g", dim, trial, depth, eps)
					serial, ref := sameEntriesAsReference(t, name+"/runner=false", r, s, rPages, sPages, eps, depth, nil)
					parallel, _ := sameEntriesAsReference(t, name+"/runner=true", r, s, rPages, sPages, eps, depth, workers)
					if parallel != serial {
						t.Fatalf("%s: stats %+v with four sub-sweeps at a time, %+v inline", name, parallel, serial)
					}
					saved = saved || serial.PairTests < ref.PairTests
				}
			}
		}
	}
	if !saved {
		t.Fatal("no draw tested fewer pairs than the reference: page-pair saturation never ran")
	}
}

// TestDNAShapeSaturation holds page-pair saturation to its purpose on
// dna_edit's shape (BenchmarkBuildDNAShape's input, about 113 windows a
// page): the sweeps hand over at most three marks a cell — proving a cell
// once for every window pair that passes would hand over 46 — and the
// counters are the same inline and with two or four sub-sweeps at a time.
func TestDNAShapeSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the dna_edit-shaped MRS-indexes")
	}
	in := dnaInput(t)
	m, err := Build(in.r, in.s, in.rPages, in.sPages, in.eps, in.pred, BuildOptions{FilterDepth: DefaultFilterDepth})
	if err != nil {
		t.Fatal(err)
	}
	cells := m.Marked()
	var serial BuildStats
	for _, n := range []int{1, 2, 4} {
		runner := workerGroup(t, n)
		var st BuildStats
		b := newBuilder(in.eps, in.pred, BuildOptions{FilterDepth: DefaultFilterDepth, Stats: &st, Runner: runner})
		b.run(in.r, in.s)
		if !b.saturate {
			t.Fatal("the build does not saturate page pairs on a shape of many windows a page")
		}
		marks := 0
		for _, ms := range b.marks {
			marks += len(ms)
		}
		if marks > 3*cells {
			t.Errorf("runner %v: %d marks handed over for %d cells, want at most %d", runner != nil, marks, cells, 3*cells)
		}
		if runner == nil {
			serial = st
		} else if st != serial {
			t.Errorf("runner of %d: stats %+v, inline %+v", n, st, serial)
		}
	}
}

// boxSides draws perSide boxes a side in dim dimensions, side s's lower
// corners uniform in [s·shift, s·shift+1) and every edge between 1 and 2 long,
// and returns them as the children windows of two node tables extended by
// half, with a builder of the given filter depth to sweep them.
func boxSides(rng *rand.Rand, dim, perSide int, shift, half float64, depth int) (*builder, [2][]xnode) {
	var out [2][]xnode
	for s := range out {
		parent := &index.Node{MBR: geom.EmptyMBR(dim), Page: -1}
		for p := 0; p < perSide; p++ {
			m := geom.MBR{Min: make(geom.Vector, dim), Max: make(geom.Vector, dim)}
			for d := 0; d < dim; d++ {
				m.Min[d] = float64(s)*shift + rng.Float64()
				m.Max[d] = m.Min[d] + 1 + rng.Float64()
			}
			parent.MBR.ExtendMBR(m)
			parent.Children = append(parent.Children, &index.Node{MBR: m, Page: p})
		}
		top, _ := newTable(parent, dim, half)
		out[s] = top[0].children
	}
	return &builder{opts: BuildOptions{FilterDepth: depth}, dim: dim, half: half}, out
}

// TestFilterAllocatesNothingPerBox guards the point of the flat scratch: a
// filter call's allocations must not grow with boxes × rounds. Once the
// scratch has its capacity, a call over 32 × 32 overlapping 2-d boxes — a
// shape the filter runs rounds on — allocates nothing at all.
func TestFilterAllocatesNothingPerBox(t *testing.T) {
	const dim, perSide = 2, 32
	b, sides := boxSides(rand.New(rand.NewSource(37)), dim, perSide, 0, 0.01, DefaultFilterDepth)
	sc := new(sweepScratch)
	nR := sc.load(sides[0], sides[1])
	var st BuildStats
	allocs := testing.AllocsPerRun(20, func() {
		st = BuildStats{}
		rAlive, sAlive, rounds := b.filter(sc, nR, &st)
		if rounds == 0 {
			t.Fatal("the filter ran no round, so the allocation count says nothing")
		}
		if len(rAlive) != perSide || len(sAlive) != perSide {
			t.Fatalf("filter kept %d × %d boxes of %d × %d overlapping ones", len(rAlive), len(sAlive), perSide, perSide)
		}
	})
	if allocs != 0 {
		t.Fatalf("filter over %d × %d boxes allocates %v objects per call, want 0", perSide, perSide, allocs)
	}
}

// TestFilterRoundRule pins the filter's stopping rule: FilterDepth bounds
// the rounds, a round runs only when it can pay (roundPays) and another
// follows only a round that dropped a quarter of the live boxes
// (roundDropped).
func TestFilterRoundRule(t *testing.T) {
	for _, c := range []struct {
		nR, nS, dim int
		pays        bool
	}{
		{32, 32, 60, false}, {120, 120, 60, false}, {121, 121, 60, true},
		{32, 32, 2, true}, {4, 4, 2, false}, {5, 5, 2, true}, {1, 1, 1, false},
		{16, 16, 4, true}, {0, 32, 2, false},
	} {
		if got := roundPays(c.nR, c.nS, c.dim); got != c.pays {
			t.Errorf("roundPays(%d, %d, %d) = %v, want %v", c.nR, c.nS, c.dim, got, c.pays)
		}
	}
	for _, c := range []struct {
		before, after int
		again         bool
	}{{100, 75, true}, {100, 76, false}, {64, 64, false}, {64, 0, true}} {
		if got := roundDropped(c.before, c.after); got != c.again {
			t.Errorf("roundDropped(%d, %d) = %v, want %v", c.before, c.after, got, c.again)
		}
	}

	rounds := func(dim int, shift float64, depth int) (int, BuildStats) {
		b, sides := boxSides(rand.New(rand.NewSource(41)), dim, 32, shift, 0.01, depth)
		sc := new(sweepScratch)
		var st BuildStats
		_, _, n := b.filter(sc, sc.load(sides[0], sides[1]), &st)
		return n, st
	}
	// A 60-d sweep of 32 × 32 boxes: no round can pay.
	for _, depth := range []int{1, DefaultFilterDepth, 64} {
		if n, st := rounds(60, 0, depth); n != 0 || st.FilterDropped != 0 {
			t.Errorf("60-d 32 × 32, depth %d: %d rounds dropping %d boxes, want none", depth, n, st.FilterDropped)
		}
	}
	// 2-d sides that overlap in a corner: the first round drops most boxes,
	// so a second runs and finds nothing more to drop. The depth caps both.
	for depth, want := range []int{0, 1, 2, 2} {
		if n, st := rounds(2, 2, depth); n != want || (n > 0) != (st.FilterDropped > 0) {
			t.Errorf("2-d corner overlap, depth %d: %d rounds dropping %d boxes, want %d rounds", depth, n, st.FilterDropped, want)
		}
	}
	// 2-d sides that overlap fully: one round, which drops nothing.
	if n, st := rounds(2, 0, DefaultFilterDepth); n != 1 || st.FilterDropped != 0 {
		t.Errorf("2-d full overlap: %d rounds dropping %d boxes, want 1 round dropping none", n, st.FilterDropped)
	}
}
