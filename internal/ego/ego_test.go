package ego

import (
	"math"
	"math/rand"
	"testing"

	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/index"
	"pmjoin/internal/join"
	"pmjoin/internal/kernel"
)

// testAdapter adapts 2-d point pages for EGO with grid width eps; the
// join's VectorJoiner or SeriesJoiner verifies the candidates under L2.
type testAdapter struct{ eps float64 }

func (a *testAdapter) GridKey(pg *disk.Page, i int) []int {
	v := pg.Flat.Row(i)
	key := make([]int, len(v))
	for d, x := range v {
		key[d] = int(math.Floor(x / a.eps))
	}
	return key
}

// buildFlat materializes n random 2-d points into sequential pages of the
// given kind with a flat one-level index. Vector pages may be reordered; the
// same points on series pages (window starts equal to their ids) stay in
// place, like sequence data.
func buildFlat(t *testing.T, d *disk.Disk, rng *rand.Rand, kind disk.Kind, n, perPage int) (*join.Dataset, []geom.Vector) {
	t.Helper()
	f := d.CreateFile()
	var vecs []geom.Vector
	var leaves []*index.Node
	for i := 0; i < n; i += perPage {
		var ids []int
		var vs []geom.Vector
		mbr := geom.EmptyMBR(2)
		for k := i; k < i+perPage && k < n; k++ {
			v := geom.Vector{rng.Float64(), rng.Float64()}
			vecs = append(vecs, v)
			ids = append(ids, k)
			vs = append(vs, v)
			mbr.ExtendPoint(v)
		}
		pg := disk.Page{Kind: kind, IDs: ids, Flat: kernel.FlatOf(vs)}
		if kind == disk.Series {
			pg.Starts = ids
		}
		addr, err := d.AppendPage(f, pg)
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, &index.Node{MBR: mbr, Page: addr.Page})
	}
	rootMBR := geom.EmptyMBR(2)
	for _, l := range leaves {
		rootMBR.ExtendMBR(l.MBR)
	}
	root := &index.Node{MBR: rootMBR, Page: -1, Children: leaves}
	return &join.Dataset{Name: "flat", File: f, Root: root, Pages: len(leaves)}, vecs
}

func brute(a, b []geom.Vector, eps float64, self bool) int64 {
	var n int64
	for i, va := range a {
		for k, vb := range b {
			if self && i >= k {
				continue
			}
			if geom.DistSq(va, vb) <= eps*eps {
				n++
			}
		}
	}
	return n
}

func TestEGOMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := disk.New(disk.DefaultModel())
	da, va := buildFlat(t, d, rng, disk.Vectors, 400, 8)
	db, vb := buildFlat(t, d, rng, disk.Vectors, 300, 8)
	const eps = 0.06
	e := &join.Engine{Disk: d, BufferSize: 16}
	rep, err := Run(e, da, db, join.VectorJoiner{Norm: geom.L2, Eps: eps}, &testAdapter{eps: eps}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := brute(va, vb, eps, false)
	if rep.Results != want {
		t.Fatalf("results = %d, want %d", rep.Results, want)
	}
	if rep.PageReads == 0 || rep.IOSeconds <= 0 {
		t.Fatalf("report not populated: %+v", rep)
	}
}

func TestEGOSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := disk.New(disk.DefaultModel())
	da, va := buildFlat(t, d, rng, disk.Vectors, 350, 8)
	const eps = 0.05
	e := &join.Engine{Disk: d, BufferSize: 16}
	rep, err := Run(e, da, da, join.VectorJoiner{Norm: geom.L2, Eps: eps}, &testAdapter{eps: eps}, Options{SelfJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	want := brute(va, va, eps, true)
	if rep.Results != want {
		t.Fatalf("results = %d, want %d", rep.Results, want)
	}
}

// TestEGOSelfJoinExcludesOverlap self-joins in-place window pages, whose
// starts are their ids: pairs of windows starting closer than
// ExcludeOverlap are skipped, as join.SelfSkip does, and the rest equal
// brute force.
func TestEGOSelfJoinExcludesOverlap(t *testing.T) {
	const eps, exclude = 0.08, 5
	d := disk.New(disk.DefaultModel())
	da, va := buildFlat(t, d, rand.New(rand.NewSource(6)), disk.Series, 300, 8)
	e := &join.Engine{Disk: d, BufferSize: 16}
	rep, err := Run(e, da, da, join.SeriesJoiner{Eps: eps}, &testAdapter{eps: eps}, Options{SelfJoin: true, ExcludeOverlap: exclude})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := range va {
		for k := i + exclude; k < len(va); k++ {
			if geom.DistSq(va[i], va[k]) <= eps*eps {
				want++
			}
		}
	}
	if rep.Results != want {
		t.Fatalf("results = %d, want %d", rep.Results, want)
	}
	if all := brute(va, va, eps, true); all == want {
		t.Fatalf("no pair within %d starts matched; the exclusion is not exercised", exclude)
	}
}

func TestEGONonReorderableMatchesAndSeeksMore(t *testing.T) {
	const eps = 0.06
	d := disk.New(disk.DefaultModel())
	// The same points twice: on vector pages and on in-place series pages.
	da, va := buildFlat(t, d, rand.New(rand.NewSource(3)), disk.Vectors, 400, 8)
	db, vb := buildFlat(t, d, rand.New(rand.NewSource(4)), disk.Vectors, 400, 8)
	sa, _ := buildFlat(t, d, rand.New(rand.NewSource(3)), disk.Series, 400, 8)
	sb, _ := buildFlat(t, d, rand.New(rand.NewSource(4)), disk.Series, 400, 8)
	want := brute(va, vb, eps, false)

	e := &join.Engine{Disk: d, BufferSize: 16}
	re, err := Run(e, da, db, join.VectorJoiner{Norm: geom.L2, Eps: eps}, &testAdapter{eps: eps}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ri, err := Run(e, sa, sb, join.SeriesJoiner{Eps: eps}, &testAdapter{eps: eps}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Results != want || ri.Results != want {
		t.Fatalf("results %d / %d, want %d", re.Results, ri.Results, want)
	}
	// The paper's point: in-place (sequence) data cannot be reordered and
	// pays many more random seeks during the sweep.
	if ri.Seeks <= re.Seeks {
		t.Fatalf("in-place seeks %d <= reordered seeks %d", ri.Seeks, re.Seeks)
	}
}

func TestEGOEmptyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := disk.New(disk.DefaultModel())
	da, _ := buildFlat(t, d, rng, disk.Vectors, 10, 4)
	e := &join.Engine{Disk: d, BufferSize: 8}
	// Epsilon so small every point is isolated: still must terminate with 0
	// or more results and no error.
	if _, err := Run(e, da, da, join.VectorJoiner{Norm: geom.L2, Eps: 1e-9}, &testAdapter{eps: 1e-9}, Options{SelfJoin: true}); err != nil {
		t.Fatal(err)
	}
}

func TestLessKeyAndCellsAdjacent(t *testing.T) {
	if !lessKey([]int{1, 2}, []int{1, 3}) || lessKey([]int{1, 3}, []int{1, 2}) {
		t.Fatal("lessKey")
	}
	if lessKey([]int{2, 2}, []int{2, 2}) {
		t.Fatal("lessKey equal")
	}
	if !cellsAdjacent([]int{0, 0}, []int{1, -1}) {
		t.Fatal("adjacent cells rejected")
	}
	if cellsAdjacent([]int{0, 0}, []int{2, 0}) {
		t.Fatal("distant cells accepted")
	}
}

func TestAddAll(t *testing.T) {
	got := addAll([]int{1, 2, 3}, -1)
	if got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("addAll = %v", got)
	}
}

func TestMergePassChargesGrowWithSmallBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := func(buffer int) int64 {
		d := disk.New(disk.DefaultModel())
		da, _ := buildFlat(t, d, rng, disk.Vectors, 600, 4)
		db, _ := buildFlat(t, d, rng, disk.Vectors, 600, 4)
		e := &join.Engine{Disk: d, BufferSize: buffer}
		rep, err := Run(e, da, db, join.VectorJoiner{Norm: geom.L2, Eps: 0.02}, &testAdapter{eps: 0.02}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.PageReads
	}
	small := mk(8)
	large := mk(128)
	if small <= large {
		t.Fatalf("external sort with tiny buffer should read more: %d <= %d", small, large)
	}
}
