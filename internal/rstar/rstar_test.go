package rstar

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pmjoin/internal/geom"
	"pmjoin/internal/index"
)

func randItems(rng *rand.Rand, n, dim int) []Item {
	items := make([]Item, n)
	for i := range items {
		v := make(geom.Vector, dim)
		for d := range v {
			v[d] = rng.Float64()
		}
		items[i] = PointItem(i, v)
	}
	return items
}

func insertAll(t *testing.T, tr *Tree, items []Item) {
	t.Helper()
	for _, it := range items {
		if err := tr.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, DefaultConfig(8)); err == nil {
		t.Fatal("dim 0 accepted")
	}
	bad := DefaultConfig(8)
	bad.MaxLeafEntries = 1
	if _, err := New(2, bad); err == nil {
		t.Fatal("leaf capacity 1 accepted")
	}
	bad = DefaultConfig(8)
	bad.MinFill = 0.9
	if _, err := New(2, bad); err == nil {
		t.Fatal("min fill 0.9 accepted")
	}
	bad = DefaultConfig(8)
	bad.ReinsertFraction = 0.9
	if _, err := New(2, bad); err == nil {
		t.Fatal("reinsert fraction 0.9 accepted")
	}
	bad = DefaultConfig(8)
	bad.MaxBranchEntries = 1
	if _, err := New(2, bad); err == nil {
		t.Fatal("branch capacity 1 accepted")
	}
}

func TestInsertRejectsWrongDimension(t *testing.T) {
	tr, _ := New(2, DefaultConfig(8))
	if err := tr.Insert(PointItem(0, geom.Vector{1})); err == nil {
		t.Fatal("wrong dimension accepted")
	}
}

func TestInsertMaintainsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr, _ := New(2, DefaultConfig(8))
	items := randItems(rng, 500, 2)
	insertAll(t, tr, items)
	if tr.Size() != 500 {
		t.Fatalf("size = %d", tr.Size())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d, expected >= 3 for 500 items at fanout 8", tr.Height())
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := randItems(rng, 400, 3)
	tr, _ := New(3, DefaultConfig(10))
	insertAll(t, tr, items)
	for iter := 0; iter < 50; iter++ {
		lo := make(geom.Vector, 3)
		hi := make(geom.Vector, 3)
		for d := 0; d < 3; d++ {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
		}
		q := geom.MBR{Min: lo, Max: hi}
		got := tr.RangeSearch(q)
		sort.Ints(got)
		var want []int
		for _, it := range items {
			if q.Contains(it.MBR.Min) {
				want = append(want, it.ID)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d results, want %d", iter, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d: result mismatch at %d", iter, i)
			}
		}
	}
}

func TestBulkLoadSTRInvariantsAndSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := randItems(rng, 1000, 2)
	tr, err := BulkLoadSTR(2, DefaultConfig(16), items)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 1000 {
		t.Fatalf("size = %d", tr.Size())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	q := geom.MBR{Min: geom.Vector{0.2, 0.2}, Max: geom.Vector{0.4, 0.4}}
	got := tr.RangeSearch(q)
	var want int
	for _, it := range items {
		if q.Contains(it.MBR.Min) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("STR search: got %d, want %d", len(got), want)
	}
}

func TestBulkLoadSTRRejectsWrongDim(t *testing.T) {
	items := []Item{PointItem(0, geom.Vector{1})}
	if _, err := BulkLoadSTR(2, DefaultConfig(4), items); err == nil {
		t.Fatal("wrong dim accepted")
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr, err := BulkLoadSTR(2, DefaultConfig(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 0 {
		t.Fatal("empty size")
	}
	if pages := tr.Pack(); len(pages) != 0 {
		t.Fatalf("pages = %d", len(pages))
	}
}

func TestPackCoversAllItemsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := randItems(rng, 300, 2)
	tr, _ := BulkLoadSTR(2, DefaultConfig(8), items)
	pages := tr.Pack()
	seen := make(map[int]bool)
	for _, pg := range pages {
		if len(pg) == 0 {
			t.Fatal("empty page")
		}
		if len(pg) > 8 {
			t.Fatalf("page with %d items exceeds capacity", len(pg))
		}
		for _, it := range pg {
			if seen[it.ID] {
				t.Fatalf("item %d packed twice", it.ID)
			}
			seen[it.ID] = true
		}
	}
	if len(seen) != 300 {
		t.Fatalf("packed %d of 300 items", len(seen))
	}
	if tr.NumPages() != len(pages) {
		t.Fatal("NumPages mismatch")
	}
	// Pack must be idempotent.
	again := tr.Pack()
	if len(again) != len(pages) {
		t.Fatal("second Pack differs")
	}
}

func TestInsertAfterPackFails(t *testing.T) {
	tr, _ := New(2, DefaultConfig(4))
	insertAll(t, tr, randItems(rand.New(rand.NewSource(5)), 10, 2))
	tr.Pack()
	if err := tr.Insert(PointItem(99, geom.Vector{0, 0})); err == nil {
		t.Fatal("insert after Pack accepted")
	}
}

func TestRootHierarchyMatchesPack(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, build := range []string{"insert", "str"} {
		items := randItems(rng, 250, 2)
		var tr *Tree
		var err error
		if build == "insert" {
			tr, err = New(2, DefaultConfig(8))
			if err == nil {
				for _, it := range items {
					if err = tr.Insert(it); err != nil {
						break
					}
				}
			}
		} else {
			tr, err = BulkLoadSTR(2, DefaultConfig(8), items)
		}
		if err != nil {
			t.Fatal(err)
		}
		pages := tr.Pack()
		root := tr.Root()
		if err := root.Validate(); err != nil {
			t.Fatalf("%s: %v", build, err)
		}
		leaves := root.Leaves(nil)
		if len(leaves) != len(pages) {
			t.Fatalf("%s: %d leaves for %d pages", build, len(leaves), len(pages))
		}
		for i, l := range leaves {
			if l.Page != i {
				t.Fatalf("%s: leaf %d has page %d (must be left-to-right order)", build, i, l.Page)
			}
			// The leaf MBR must cover every item of its page.
			for _, it := range pages[l.Page] {
				if !l.MBR.ContainsMBR(it.MBR) {
					t.Fatalf("%s: leaf %d does not cover item %d", build, i, it.ID)
				}
			}
		}
	}
}

func TestSpatialObjectsWithExtent(t *testing.T) {
	// Rectangles, not just points.
	rng := rand.New(rand.NewSource(7))
	items := make([]Item, 200)
	for i := range items {
		lo := geom.Vector{rng.Float64(), rng.Float64()}
		m := geom.NewMBR(lo)
		m.ExtendPoint(geom.Vector{lo[0] + rng.Float64()*0.1, lo[1] + rng.Float64()*0.1})
		items[i] = Item{ID: i, MBR: m}
	}
	tr, _ := New(2, DefaultConfig(8))
	for _, it := range items {
		if err := tr.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	q := geom.MBR{Min: geom.Vector{0.4, 0.4}, Max: geom.Vector{0.6, 0.6}}
	got := tr.RangeSearch(q)
	var want int
	for _, it := range items {
		if q.Intersects(it.MBR) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("rect search: got %d, want %d", len(got), want)
	}
}

func TestDuplicatePointsSurvive(t *testing.T) {
	tr, _ := New(2, DefaultConfig(4))
	for i := 0; i < 50; i++ {
		if err := tr.Insert(PointItem(i, geom.Vector{0.5, 0.5})); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	q := geom.NewMBR(geom.Vector{0.5, 0.5})
	if got := tr.RangeSearch(q); len(got) != 50 {
		t.Fatalf("got %d of 50 duplicates", len(got))
	}
}

func TestClusteredInsertInvariants(t *testing.T) {
	// Highly clustered data exercises forced reinsertion and splits.
	rng := rand.New(rand.NewSource(8))
	tr, _ := New(2, DefaultConfig(6))
	id := 0
	for c := 0; c < 10; c++ {
		cx, cy := rng.Float64(), rng.Float64()
		for i := 0; i < 60; i++ {
			v := geom.Vector{cx + rng.NormFloat64()*0.001, cy + rng.NormFloat64()*0.001}
			if err := tr.Insert(PointItem(id, v)); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 600 {
		t.Fatalf("size = %d", tr.Size())
	}
	all := tr.RangeSearch(geom.MBR{Min: geom.Vector{-1, -1}, Max: geom.Vector{2, 2}})
	if len(all) != 600 {
		t.Fatalf("full-range search found %d of 600", len(all))
	}
}

func TestHighDimensionalBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	items := randItems(rng, 300, 60)
	tr, err := BulkLoadSTR(60, DefaultConfig(8), items)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Root().Leaves(nil)); got != tr.NumPages() {
		t.Fatalf("leaves %d != pages %d", got, tr.NumPages())
	}
}

// refBulkLoadSTR, refStrPack and refSortByCenter are the bulk loader as it
// was first written — one sort.SliceStable over the entries per axis and per
// group — kept as the oracle BulkLoadSTR must reproduce bit for bit.
func refBulkLoadSTR(dim int, cfg Config, items []Item) (*Tree, error) {
	t, err := New(dim, cfg)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return t, nil
	}
	leafEntries := make([]entry, len(items))
	for i, it := range items {
		leafEntries[i] = entry{mbr: it.MBR.Clone(), item: it}
	}
	nodes := refStrPack(leafEntries, dim, t.cfg.MaxLeafEntries, true, 0)
	for level := 1; len(nodes) > 1; level++ {
		parentEntries := make([]entry, len(nodes))
		for i, c := range nodes {
			parentEntries[i] = entry{mbr: nodeMBR(c), child: c}
		}
		nodes = refStrPack(parentEntries, dim, t.cfg.MaxBranchEntries, false, level)
	}
	t.root = nodes[0]
	t.size = len(items)
	return t, nil
}

func refStrPack(entries []entry, dim, capacity int, leaf bool, level int) []*node {
	numNodes := (len(entries) + capacity - 1) / capacity
	groups := [][]entry{entries}
	for axis := 0; axis < dim-1 && numNodes > 1; axis++ {
		slabsPerGroup := int(math.Ceil(math.Pow(float64(numNodes), 1/float64(dim-axis))))
		var next [][]entry
		for _, g := range groups {
			refSortByCenter(g, axis)
			slabSize := (len(g) + slabsPerGroup - 1) / slabsPerGroup
			if slabSize < capacity {
				slabSize = capacity
			}
			for i := 0; i < len(g); i += slabSize {
				next = append(next, g[i:min(i+slabSize, len(g))])
			}
		}
		groups = next
	}
	var out []*node
	for _, g := range groups {
		refSortByCenter(g, dim-1)
		for i := 0; i < len(g); i += capacity {
			out = append(out, &node{
				leaf:    leaf,
				level:   level,
				page:    -1,
				entries: append([]entry(nil), g[i:min(i+capacity, len(g))]...),
			})
		}
	}
	return out
}

func refSortByCenter(es []entry, axis int) {
	sort.SliceStable(es, func(i, j int) bool {
		ci := (es[i].mbr.Min[axis] + es[i].mbr.Max[axis]) / 2
		cj := (es[j].mbr.Min[axis] + es[j].mbr.Max[axis]) / 2
		return ci < cj
	})
}

// strOracleItems draws the tree-identity inputs. Ties are where sorting a
// finished slab once by its owed axes could part from sorting it axis by
// axis, so three of the four shapes are made of them.
func strOracleItems(rng *rand.Rand, shape string, n, dim int) []Item {
	items := make([]Item, n)
	dup := make(geom.Vector, dim)
	for d := range dup {
		dup[d] = rng.Float64()
	}
	for i := range items {
		lo, hi := make(geom.Vector, dim), make(geom.Vector, dim)
		t := rng.Float64()
		for d := range lo {
			switch shape {
			case "uniform": // small boxes, so centres are not corners
				lo[d] = rng.Float64()
				hi[d] = lo[d] + rng.Float64()/16
			case "duplicates":
				lo[d], hi[d] = dup[d], dup[d]
			case "quantised": // 4 values per axis: trailing axes are all ties
				lo[d] = float64(rng.Intn(4)) / 4
				hi[d] = lo[d]
			case "collinear":
				lo[d] = dup[d] + t*float64(d+1)
				hi[d] = lo[d]
			}
		}
		items[i] = Item{ID: i, MBR: geom.MBR{Min: lo, Max: hi}}
	}
	return items
}

func sameBits(a, b geom.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameHierarchy reports the first difference between two exported
// hierarchies: shape, page numbers, or any MBR corner bit.
func sameHierarchy(got, want *index.Node, path string) error {
	if got.Page != want.Page || len(got.Children) != len(want.Children) {
		return fmt.Errorf("node %s: page %d with %d children, want page %d with %d",
			path, got.Page, len(got.Children), want.Page, len(want.Children))
	}
	if !sameBits(got.MBR.Min, want.MBR.Min) || !sameBits(got.MBR.Max, want.MBR.Max) {
		return fmt.Errorf("node %s: MBR %v, want %v", path, got.MBR, want.MBR)
	}
	for i := range got.Children {
		if err := sameHierarchy(got.Children[i], want.Children[i], fmt.Sprintf("%s.%d", path, i)); err != nil {
			return err
		}
	}
	return nil
}

// TestBulkLoadSTRMatchesPerAxisSorts is the tree-identity oracle: the key
// permutation and the single sort of finished slabs must pack the same pages
// in the same order under the same MBR hierarchy as the per-axis passes.
func TestBulkLoadSTRMatchesPerAxisSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, dim := range []int{1, 2, 3, 16, 60} {
		for _, capacity := range []int{2, 8, 32} {
			for _, n := range []int{1, capacity, capacity + 1, 1000, 5000} {
				if testing.Short() && n > 1000 {
					continue // the reference costs 59 stable passes over 5 000 entries
				}
				for _, shape := range []string{"uniform", "duplicates", "quantised", "collinear"} {
					name := fmt.Sprintf("dim=%d/cap=%d/n=%d/%s", dim, capacity, n, shape)
					items := strOracleItems(rng, shape, n, dim)
					cfg := DefaultConfig(capacity)
					cfg.MaxBranchEntries = capacity
					got, err := BulkLoadSTR(dim, cfg, items)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := refBulkLoadSTR(dim, cfg, items)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					if err := got.Validate(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					gotPages, wantPages := got.Pack(), want.Pack()
					if len(gotPages) != len(wantPages) {
						t.Fatalf("%s: %d pages, want %d", name, len(gotPages), len(wantPages))
					}
					for p := range wantPages {
						if len(gotPages[p]) != len(wantPages[p]) {
							t.Fatalf("%s: page %d holds %d items, want %d", name, p, len(gotPages[p]), len(wantPages[p]))
						}
						for k := range wantPages[p] {
							if gotPages[p][k].ID != wantPages[p][k].ID {
								t.Fatalf("%s: page %d slot %d holds item %d, want %d",
									name, p, k, gotPages[p][k].ID, wantPages[p][k].ID)
							}
						}
					}
					if err := sameHierarchy(got.Root(), want.Root(), "root"); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
	}
}
