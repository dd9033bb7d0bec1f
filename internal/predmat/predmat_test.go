package predmat

import (
	"math/rand"
	"reflect"
	"testing"

	"pmjoin/internal/dataset"
	"pmjoin/internal/geom"
	"pmjoin/internal/index"
	"pmjoin/internal/mrsindex"
	"pmjoin/internal/pool"
	"pmjoin/internal/rstar"
	"pmjoin/internal/seqdist"
)

func TestMatrixMarkAndQuery(t *testing.T) {
	m := NewMatrix(4, 5)
	// Marked finalizes the matrix it reads, so the empty count is read off a
	// matrix of its own.
	if m.Rows() != 4 || m.Cols() != 5 || NewMatrix(4, 5).Marked() != 0 {
		t.Fatal("dimensions")
	}
	m.Mark(1, 3)
	m.Mark(1, 0)
	m.Mark(2, 3)
	m.Mark(1, 3) // duplicate: no-op
	if m.Marked() != 3 {
		t.Fatalf("marked = %d", m.Marked())
	}
	if !m.IsMarked(1, 3) || m.IsMarked(0, 0) {
		t.Fatal("IsMarked")
	}
	if got := m.RowCols(1); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("RowCols = %v", got)
	}
	if got := m.ColRows(3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ColRows = %v", got)
	}
	if got := m.MarkedRows(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("MarkedRows = %v", got)
	}
	if got := m.MarkedCols(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("MarkedCols = %v", got)
	}
	entries := m.Entries()
	if len(entries) != 3 || entries[0] != (Entry{R: 1, C: 0}) {
		t.Fatalf("Entries = %v", entries)
	}
	if d := m.Density(); d != 3.0/20 {
		t.Fatalf("density = %g", d)
	}
}

func TestMatrixMarkOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 2).Mark(2, 0)
}

func TestFullMatrix(t *testing.T) {
	m := Full(3, 4)
	if m.Marked() != 12 || m.Density() != 1 {
		t.Fatal("full matrix")
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			if !m.IsMarked(r, c) {
				t.Fatalf("(%d,%d) unmarked", r, c)
			}
		}
	}
	if len(m.RowCols(2)) != 4 || len(m.ColRows(3)) != 3 {
		t.Fatal("full adjacency")
	}
}

func TestEmptyMatrixDensity(t *testing.T) {
	if NewMatrix(0, 0).Density() != 0 {
		t.Fatal("0x0 density")
	}
}

// buildTrees indexes two random point sets and returns the trees plus the
// raw points keyed by page.
func buildTrees(t *testing.T, rng *rand.Rand, nA, nB, dim, leafCap int) (ta, tb *rstar.Tree, pa, pb [][]geom.Vector) {
	t.Helper()
	mk := func(n int) (*rstar.Tree, [][]geom.Vector) {
		items := make([]rstar.Item, n)
		for i := range items {
			v := make(geom.Vector, dim)
			for d := range v {
				v[d] = rng.Float64()
			}
			items[i] = rstar.PointItem(i, v)
		}
		tr, err := rstar.BulkLoadSTR(dim, rstar.DefaultConfig(leafCap), items)
		if err != nil {
			t.Fatal(err)
		}
		pages := tr.Pack()
		out := make([][]geom.Vector, len(pages))
		for p, pg := range pages {
			for _, it := range pg {
				out[p] = append(out[p], it.MBR.Min)
			}
		}
		return tr, out
	}
	ta, pa = mk(nA)
	tb, pb = mk(nB)
	return ta, tb, pa, pb
}

// TestCompleteness is Theorem 1: every object pair within eps lives in a
// marked page pair, across epsilons, dimensions, and filter depths.
func TestCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{1, 2, 4} {
		for _, depth := range []int{0, 1, 5} {
			ta, tb, pa, pb := buildTrees(t, rng, 300, 250, dim, 8)
			eps := 0.1
			pred := NormPredictor{Norm: geom.L2}
			m, err := Build(ta.Root(), tb.Root(), ta.NumPages(), tb.NumPages(), eps, pred,
				BuildOptions{FilterDepth: depth})
			if err != nil {
				t.Fatal(err)
			}
			for ra, pageA := range pa {
				for _, va := range pageA {
					for rb, pageB := range pb {
						for _, vb := range pageB {
							if geom.L2.Dist(va, vb) <= eps && !m.IsMarked(ra, rb) {
								t.Fatalf("dim=%d depth=%d: pair within eps in unmarked pages (%d,%d)",
									dim, depth, ra, rb)
							}
						}
					}
				}
			}
		}
	}
}

// TestFilterPreservesMatrix: the Figure 2 filter and its stopping rule are
// a pure optimization — on each of the three index shapes (60-d
// Landsat-like vectors, 2-d points and DNA frequency MBRs), every filter
// depth, built inline or four sub-sweeps at a time, marks the entries the
// unfiltered inline build marks.
func TestFilterPreservesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	halves := dataset.SplitEqual(dataset.Landsat(4000, 60, 3), 2, 1)
	ta, tb, _, _ := buildTrees(t, rng, 2000, 1500, 2, 8)
	cfg := mrsindex.Config{Window: 500, Stride: 32, PageBytes: 4096}
	ia, err := mrsindex.Build(dataset.DNA(60000, 7), seqdist.DNA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := mrsindex.Build(dataset.DNA(40000, 8), seqdist.DNA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		name string
		in   *buildInput
	}{
		{"landsat60d", strInput(t, halves[0], halves[1], 8, 0.05)},
		{"points2d", &buildInput{r: ta.Root(), s: tb.Root(), rPages: ta.NumPages(), sPages: tb.NumPages(),
			eps: 0.02, pred: NormPredictor{Norm: geom.L2}}},
		{"dnaFreq", &buildInput{r: ia.Root(), s: ib.Root(), rPages: ia.NumPages(), sPages: ib.NumPages(),
			eps: 20, pred: mrsindex.Predictor{}}},
	} {
		in := shape.in
		build := func(depth int, runner *pool.Group) []Entry {
			m, err := Build(in.r, in.s, in.rPages, in.sPages, in.eps, in.pred, BuildOptions{FilterDepth: depth, Runner: runner})
			if err != nil {
				t.Fatal(err)
			}
			return m.Entries()
		}
		want := build(0, nil)
		if len(want) == 0 || len(want) == in.rPages*in.sPages {
			t.Fatalf("%s: %d of %d × %d cells marked; the comparison is vacuous", shape.name, len(want), in.rPages, in.sPages)
		}
		for _, depth := range []int{0, 1, 2, 5, 64} {
			for _, runner := range []*pool.Group{nil, workerGroup(t, 4)} {
				if got := build(depth, runner); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: depth %d, runner %v: %d entries, want the unfiltered build's %d",
						shape.name, depth, runner != nil, len(got), len(want))
				}
			}
		}
	}
}

// TestTightness: marked page pairs must be justified — the lower bound
// between the page MBRs is within eps (no spurious marks far apart).
func TestTightness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ta, tb, _, _ := buildTrees(t, rng, 300, 300, 2, 8)
	eps := 0.05
	pred := NormPredictor{Norm: geom.L2}
	m, err := Build(ta.Root(), tb.Root(), ta.NumPages(), tb.NumPages(), eps, pred, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	leavesA := ta.Root().Leaves(nil)
	leavesB := tb.Root().Leaves(nil)
	byPageA := map[int]geom.MBR{}
	for _, l := range leavesA {
		byPageA[l.Page] = l.MBR
	}
	byPageB := map[int]geom.MBR{}
	for _, l := range leavesB {
		byPageB[l.Page] = l.MBR
	}
	for _, e := range m.Entries() {
		if got := pred.LowerBound(byPageA[e.R], byPageB[e.C]); got > eps {
			t.Fatalf("entry %v marked with bound %g > eps %g", e, got, eps)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ta, tb, _, _ := buildTrees(t, rng, 50, 50, 2, 4)
	pred := NormPredictor{Norm: geom.L2}
	if _, err := Build(nil, tb.Root(), 0, tb.NumPages(), 0.1, pred, BuildOptions{}); err == nil {
		t.Fatal("nil root accepted")
	}
	if _, err := Build(ta.Root(), tb.Root(), ta.NumPages(), tb.NumPages(), -1, pred, BuildOptions{}); err == nil {
		t.Fatal("negative eps accepted")
	}
}

func TestBuildStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ta, tb, _, _ := buildTrees(t, rng, 300, 300, 2, 8)
	var st BuildStats
	_, err := Build(ta.Root(), tb.Root(), ta.NumPages(), tb.NumPages(), 0.05,
		NormPredictor{Norm: geom.L2}, BuildOptions{FilterDepth: 5, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if st.SweepEvents == 0 || st.PairTests == 0 || st.Recursions == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

// TestFilterReducesWork: on well-separated data the filter must prune boxes.
func TestFilterReducesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Two distant clusters: only a small overlap region joins.
	mk := func(offset float64, n int) *rstar.Tree {
		items := make([]rstar.Item, n)
		for i := range items {
			items[i] = rstar.PointItem(i, geom.Vector{offset + rng.Float64(), rng.Float64()})
		}
		tr, err := rstar.BulkLoadSTR(2, rstar.DefaultConfig(8), items)
		if err != nil {
			t.Fatal(err)
		}
		tr.Pack()
		return tr
	}
	ta := mk(0, 400)
	tb := mk(0.95, 400)
	var st0, st5 BuildStats
	pred := NormPredictor{Norm: geom.L2}
	if _, err := Build(ta.Root(), tb.Root(), ta.NumPages(), tb.NumPages(), 0.01, pred,
		BuildOptions{FilterDepth: 0, Stats: &st0}); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(ta.Root(), tb.Root(), ta.NumPages(), tb.NumPages(), 0.01, pred,
		BuildOptions{FilterDepth: 5, Stats: &st5}); err != nil {
		t.Fatal(err)
	}
	if st5.FilterDropped == 0 {
		t.Fatal("filter dropped nothing on separated clusters")
	}
	if st5.SweepEvents >= st0.SweepEvents {
		t.Fatalf("filter did not reduce sweep events: %d vs %d", st5.SweepEvents, st0.SweepEvents)
	}
}

// TestMixedHeights joins a deep hierarchy against a flat one.
func TestMixedHeights(t *testing.T) {
	leafA := &index.Node{MBR: geom.MBR{Min: geom.Vector{0, 0}, Max: geom.Vector{1, 1}}, Page: 0}
	rootA := leafA // height 1
	var leavesB []*index.Node
	for i := 0; i < 4; i++ {
		leavesB = append(leavesB, &index.Node{
			MBR:  geom.MBR{Min: geom.Vector{float64(i), 0}, Max: geom.Vector{float64(i) + 0.5, 1}},
			Page: i,
		})
	}
	mid1 := &index.Node{MBR: geom.Union(leavesB[0].MBR, leavesB[1].MBR), Page: -1, Children: leavesB[:2]}
	mid2 := &index.Node{MBR: geom.Union(leavesB[2].MBR, leavesB[3].MBR), Page: -1, Children: leavesB[2:]}
	rootB := &index.Node{MBR: geom.Union(mid1.MBR, mid2.MBR), Page: -1, Children: []*index.Node{mid1, mid2}}

	m, err := Build(rootA, rootB, 1, 4, 0.6, NormPredictor{Norm: geom.L2}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Page 0 of A spans x in [0,1]; within 0.6 of boxes starting at 0, 1
	// (and 2 starts at x=2, gap 1.0 > 0.6).
	if !m.IsMarked(0, 0) || !m.IsMarked(0, 1) {
		t.Fatalf("expected marks on close pages; entries %v", m.Entries())
	}
	if m.IsMarked(0, 3) {
		t.Fatal("distant page marked")
	}
}

func TestNormPredictorScale(t *testing.T) {
	a := geom.NewMBR(geom.Vector{0})
	b := geom.NewMBR(geom.Vector{2})
	p := NormPredictor{Norm: geom.L2, Scale: 3}
	if got := p.LowerBound(a, b); got != 6 {
		t.Fatalf("scaled bound = %g", got)
	}
	q := NormPredictor{Norm: geom.L2} // zero scale means 1
	if got := q.LowerBound(a, b); got != 2 {
		t.Fatalf("unit bound = %g", got)
	}
}

// TestSelfJoinMatrixSymmetric: building R against R yields a symmetric
// matrix with a fully marked diagonal.
func TestSelfJoinMatrixSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ta, _, _, _ := buildTrees(t, rng, 300, 10, 2, 8)
	m, err := Build(ta.Root(), ta.Root(), ta.NumPages(), ta.NumPages(), 0.05,
		NormPredictor{Norm: geom.L2}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < ta.NumPages(); p++ {
		if !m.IsMarked(p, p) {
			t.Fatalf("diagonal (%d,%d) unmarked", p, p)
		}
	}
	for _, e := range m.Entries() {
		if !m.IsMarked(e.C, e.R) {
			t.Fatalf("asymmetric entry %v", e)
		}
	}
}

// boundOnly hides that a predictor is a NormPredictor, so MBRTest gives
// Build the plain LowerBound(a, b) <= eps comparison.
type boundOnly struct{ Predictor }

// TestKernelBoundPreservesMatrix: the kernel's MBR test is a pure
// optimization — for every norm, the matrix must equal the one the
// LowerBound comparison builds (which is also the only path a predictor
// without a kernel bound ever takes).
func TestKernelBoundPreservesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, pred := range []NormPredictor{
		{Norm: geom.L1}, {Norm: geom.L2}, {Norm: geom.LInf}, {Norm: geom.Norm{P: 3}}, {Norm: geom.L2, Scale: 0.5},
	} {
		ta, tb, _, _ := buildTrees(t, rng, 200, 200, 3, 6)
		eps := 0.05 + rng.Float64()*0.1
		build := func(p Predictor) *Matrix {
			m, err := Build(ta.Root(), tb.Root(), ta.NumPages(), tb.NumPages(), eps, p, BuildOptions{FilterDepth: DefaultFilterDepth})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		kern, ref := build(pred), build(boundOnly{pred})
		if kern.Marked() == 0 || kern.Marked() == ta.NumPages()*tb.NumPages() {
			t.Fatalf("%+v: %d marks; the comparison is vacuous", pred, kern.Marked())
		}
		if !reflect.DeepEqual(kern.Entries(), ref.Entries()) {
			t.Errorf("%+v: kernel bound marked %d entries, LowerBound %d", pred, kern.Marked(), ref.Marked())
		}
	}
}
