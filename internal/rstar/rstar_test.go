package rstar

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// validateTree checks the packed tree's structure: MBR containment (through
// index.Node.Validate), every leaf at the same depth, node sizes within the
// configured capacities, each leaf's MBR covering its page, and every item
// on exactly one page.
func validateTree(tr *Tree, cfg Config, items []Item) error {
	root, pages := tr.Root(), tr.Pack()
	if len(items) == 0 {
		if len(pages) != 0 || !root.IsLeaf() || root.Page != -1 {
			return fmt.Errorf("empty tree: %d pages, root page %d", len(pages), root.Page)
		}
		return nil
	}
	if err := root.Validate(); err != nil {
		return err
	}
	height := root.Height()
	var walk func(n *index.Node, depth int) error
	walk = func(n *index.Node, depth int) error {
		if n.IsLeaf() {
			if depth != height {
				return fmt.Errorf("leaf of page %d at depth %d, tree height %d", n.Page, depth, height)
			}
			pg := pages[n.Page]
			if len(pg) < 1 || len(pg) > cfg.MaxLeafEntries {
				return fmt.Errorf("page %d holds %d items, capacity %d", n.Page, len(pg), cfg.MaxLeafEntries)
			}
			for _, it := range pg {
				if !n.MBR.ContainsMBR(it.MBR) {
					return fmt.Errorf("leaf of page %d does not cover item %d", n.Page, it.ID)
				}
			}
			return nil
		}
		if len(n.Children) > cfg.MaxBranchEntries {
			return fmt.Errorf("node with %d children exceeds fanout %d", len(n.Children), cfg.MaxBranchEntries)
		}
		for _, c := range n.Children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, 1); err != nil {
		return err
	}
	seen := make(map[int]bool, len(items))
	for _, pg := range pages {
		for _, it := range pg {
			if seen[it.ID] {
				return fmt.Errorf("item %d packed twice", it.ID)
			}
			seen[it.ID] = true
		}
	}
	if len(seen) != len(items) {
		return fmt.Errorf("packed %d of %d items", len(seen), len(items))
	}
	return nil
}

// searchHierarchy returns the IDs of the items whose MBR intersects q, found
// by descending only into nodes whose MBR intersects q, as the matrix build
// does.
func searchHierarchy(tr *Tree, q geom.MBR) []int {
	var out []int
	var walk func(n *index.Node)
	walk = func(n *index.Node) {
		if !n.MBR.Intersects(q) {
			return
		}
		if n.IsLeaf() {
			for _, it := range tr.Pack()[n.Page] {
				if it.MBR.Intersects(q) {
					out = append(out, it.ID)
				}
			}
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tr.Root())
	sort.Ints(out)
	return out
}

func bruteSearch(items []Item, q geom.MBR) []int {
	var out []int
	for _, it := range items {
		if it.MBR.Intersects(q) {
			out = append(out, it.ID)
		}
	}
	sort.Ints(out)
	return out
}

func TestBulkLoadSTRInvariantsAndSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := randItems(rng, 1000, 2)
	cfg := DefaultConfig(16)
	tr, err := BulkLoadSTR(2, cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateTree(tr, cfg, items); err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 50; iter++ {
		q := geom.NewMBR(geom.Vector{rng.Float64(), rng.Float64()})
		q.ExtendPoint(geom.Vector{rng.Float64(), rng.Float64()})
		got, want := searchHierarchy(tr, q), bruteSearch(items, q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("query %v: hierarchy finds %d items, brute force %d", q, len(got), len(want))
		}
	}
}

func TestBulkLoadSTRRejectsWrongDim(t *testing.T) {
	items := []Item{PointItem(0, geom.Vector{1})}
	if _, err := BulkLoadSTR(2, DefaultConfig(4), items); err == nil {
		t.Fatal("wrong dim accepted")
	}
	if _, err := BulkLoadSTR(0, DefaultConfig(4), nil); err == nil {
		t.Fatal("dim 0 accepted")
	}
}

func TestBulkLoadSTRRejectsBadConfig(t *testing.T) {
	items := randItems(rand.New(rand.NewSource(1)), 10, 2)
	bad := DefaultConfig(1)
	if _, err := BulkLoadSTR(2, bad, items); err == nil {
		t.Fatal("leaf capacity 1 accepted")
	}
	bad = DefaultConfig(8)
	bad.MaxBranchEntries = 1
	if _, err := BulkLoadSTR(2, bad, items); err == nil {
		t.Fatal("branch capacity 1 accepted")
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	cfg := DefaultConfig(4)
	tr, err := BulkLoadSTR(2, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateTree(tr, cfg, nil); err != nil {
		t.Fatal(err)
	}
	if pages := tr.Pack(); len(pages) != 0 || tr.NumPages() != 0 {
		t.Fatalf("pages = %d", len(pages))
	}
	pt, err := LoadPoints(2, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if root := pt.Root(); pt.NumPages() != 0 || !root.IsLeaf() || root.Page != -1 {
		t.Fatalf("empty point tree: %d pages, root page %d", pt.NumPages(), root.Page)
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

func TestRootHierarchyMatchesPack(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	items := randItems(rng, 250, 2)
	tr, err := BulkLoadSTR(2, DefaultConfig(8), items)
	if err != nil {
		t.Fatal(err)
	}
	pages := tr.Pack()
	root := tr.Root()
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Root() != root {
		t.Fatal("Root built a second hierarchy")
	}
	leaves := root.Leaves(nil)
	if len(leaves) != len(pages) {
		t.Fatalf("%d leaves for %d pages", len(leaves), len(pages))
	}
	for i, l := range leaves {
		if l.Page != i {
			t.Fatalf("leaf %d has page %d (must be left-to-right order)", i, l.Page)
		}
		// The leaf MBR must cover every item of its page.
		for _, it := range pages[l.Page] {
			if !l.MBR.ContainsMBR(it.MBR) {
				t.Fatalf("leaf %d does not cover item %d", i, it.ID)
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
	cfg := DefaultConfig(8)
	tr, err := BulkLoadSTR(2, cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateTree(tr, cfg, items); err != nil {
		t.Fatal(err)
	}
	q := geom.MBR{Min: geom.Vector{0.4, 0.4}, Max: geom.Vector{0.6, 0.6}}
	if got, want := searchHierarchy(tr, q), bruteSearch(items, q); len(got) != len(want) {
		t.Fatalf("rect search: got %d, want %d", len(got), len(want))
	}
}

func TestDuplicatePointsSurvive(t *testing.T) {
	items := make([]Item, 50)
	for i := range items {
		items[i] = PointItem(i, geom.Vector{0.5, 0.5})
	}
	cfg := DefaultConfig(4)
	tr, err := BulkLoadSTR(2, cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateTree(tr, cfg, items); err != nil {
		t.Fatal(err)
	}
	q := geom.NewMBR(geom.Vector{0.5, 0.5})
	if got := searchHierarchy(tr, q); len(got) != 50 {
		t.Fatalf("got %d of 50 duplicates", len(got))
	}
}

func TestHighDimensionalBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	items := randItems(rng, 300, 60)
	cfg := DefaultConfig(8)
	tr, err := BulkLoadSTR(60, cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateTree(tr, cfg, items); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Root().Leaves(nil)); got != tr.NumPages() {
		t.Fatalf("leaves %d != pages %d", got, tr.NumPages())
	}
}

// refBulkLoadSTR, refStrPack and refSortByCenter are the bulk loader as it
// was first written — one sort.SliceStable over the entries per axis and per
// group — kept as the oracle BulkLoadSTR must reproduce bit for bit.
func refBulkLoadSTR(dim int, cfg Config, items []Item) *Tree {
	if len(items) == 0 {
		return &Tree{root: &index.Node{Page: -1}, pages: [][]Item{}}
	}
	leafItems := make(map[*index.Node][]Item)
	entries := make([]refEntry, len(items))
	for i, it := range items {
		entries[i] = refEntry{mbr: it.MBR.Clone(), item: it}
	}
	var nodes []*index.Node
	for _, g := range refStrPack(entries, dim, cfg.MaxLeafEntries) {
		n := &index.Node{MBR: refEntriesMBR(g), Page: -1}
		for _, e := range g {
			leafItems[n] = append(leafItems[n], e.item)
		}
		nodes = append(nodes, n)
	}
	for len(nodes) > 1 {
		entries = entries[:0]
		for _, c := range nodes {
			entries = append(entries, refEntry{mbr: c.MBR, child: c})
		}
		nodes = nodes[:0:0]
		for _, g := range refStrPack(entries, dim, cfg.MaxBranchEntries) {
			n := &index.Node{MBR: refEntriesMBR(g), Page: -1}
			for _, e := range g {
				n.Children = append(n.Children, e.child)
			}
			nodes = append(nodes, n)
		}
	}
	t := &Tree{root: nodes[0]}
	for _, l := range t.root.Leaves(nil) {
		l.Page = len(t.pages)
		t.pages = append(t.pages, leafItems[l])
	}
	return t
}

type refEntry struct {
	mbr   geom.MBR
	child *index.Node // nil for leaf entries
	item  Item        // valid for leaf entries
}

func refEntriesMBR(es []refEntry) geom.MBR {
	m := es[0].mbr.Clone()
	for _, e := range es[1:] {
		m.ExtendMBR(e.mbr)
	}
	return m
}

// refStrPack returns the entries of each node, in node order.
func refStrPack(entries []refEntry, dim, capacity int) [][]refEntry {
	numNodes := (len(entries) + capacity - 1) / capacity
	groups := [][]refEntry{entries}
	for axis := 0; axis < dim-1 && numNodes > 1; axis++ {
		slabsPerGroup := int(math.Ceil(math.Pow(float64(numNodes), 1/float64(dim-axis))))
		var next [][]refEntry
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
	var out [][]refEntry
	for _, g := range groups {
		refSortByCenter(g, dim-1)
		for i := 0; i < len(g); i += capacity {
			out = append(out, append([]refEntry(nil), g[i:min(i+capacity, len(g))]...))
		}
	}
	return out
}

func refSortByCenter(es []refEntry, axis int) {
	sort.SliceStable(es, func(i, j int) bool {
		ci := (es[i].mbr.Min[axis] + es[i].mbr.Max[axis]) / 2
		cj := (es[j].mbr.Min[axis] + es[j].mbr.Max[axis]) / 2
		return ci < cj
	})
}

// strOracleItems draws the tree-identity inputs. Ties are where sorting a
// finished slab once by its owed axes could part from sorting it axis by
// axis, so three of the five shapes are made of them. The clustered shape
// packs ten tight Gaussian clusters, one after another in ID order.
func strOracleItems(rng *rand.Rand, shape string, n, dim int) []Item {
	items := make([]Item, n)
	dup := make(geom.Vector, dim)
	for d := range dup {
		dup[d] = rng.Float64()
	}
	const clusters = 10
	centres := make([]geom.Vector, clusters)
	for c := range centres {
		centres[c] = make(geom.Vector, dim)
		for d := range centres[c] {
			centres[c][d] = rng.Float64()
		}
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
			case "clustered":
				lo[d] = centres[i*clusters/n][d] + rng.NormFloat64()*0.001
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
				for _, shape := range []string{"uniform", "duplicates", "quantised", "collinear", "clustered"} {
					name := fmt.Sprintf("dim=%d/cap=%d/n=%d/%s", dim, capacity, n, shape)
					items := strOracleItems(rng, shape, n, dim)
					cfg := DefaultConfig(capacity)
					cfg.MaxBranchEntries = capacity
					got, err := BulkLoadSTR(dim, cfg, items)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want := refBulkLoadSTR(dim, cfg, items)
					if err := validateTree(got, cfg, items); err != nil {
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

// TestPointLoadMatchesBulkLoadSTR holds the two entry points to one tree:
// LoadPoints over vectors and BulkLoadSTR over their PointItems must give
// the same pages, with the same IDs in the same order and rows equal to the
// vectors, under the same hierarchy to the bit. The extreme shape puts
// ±MaxFloat64 among ordinary values, where a centre (x+x)/2 overflows to
// ±Inf and ties.
func TestPointLoadMatchesBulkLoadSTR(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	extremes := []float64{-math.MaxFloat64, -1, 0, 0.5, math.MaxFloat64}
	for dim := 1; dim <= 60; dim++ {
		for _, capacity := range []int{2, 8} {
			for _, n := range []int{1, capacity, capacity + 1, 5000} {
				if n == 5000 && (testing.Short() || !slices.Contains([]int{1, 2, 3, 16, 60}, dim)) {
					continue // the large case at the reference test's dimensions
				}
				for _, shape := range []string{"duplicates", "quantised", "collinear", "clustered", "extremes"} {
					name := fmt.Sprintf("dim=%d/cap=%d/n=%d/%s", dim, capacity, n, shape)
					var items []Item
					if shape == "extremes" {
						items = make([]Item, n)
						for i := range items {
							v := make(geom.Vector, dim)
							for d := range v {
								v[d] = extremes[rng.Intn(len(extremes))]
							}
							items[i] = PointItem(i, v)
						}
					} else {
						items = strOracleItems(rng, shape, n, dim)
					}
					vecs := make([][]float64, n)
					for i, it := range items {
						vecs[i] = it.MBR.Min
					}
					cfg := DefaultConfig(capacity)
					cfg.MaxBranchEntries = capacity
					got, err := LoadPoints(dim, cfg, vecs)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := BulkLoadSTR(dim, cfg, items)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got.NumPages() != want.NumPages() {
						t.Fatalf("%s: %d pages, want %d", name, got.NumPages(), want.NumPages())
					}
					for p, pg := range want.Pack() {
						ids, rows := got.Page(p)
						if len(ids) != len(pg) || len(rows) != len(pg)*dim {
							t.Fatalf("%s: page %d holds %d IDs and %d coordinates, want %d items", name, p, len(ids), len(rows), len(pg))
						}
						for k, it := range pg {
							if ids[k] != it.ID || !sameBits(rows[k*dim:(k+1)*dim], it.MBR.Min) {
								t.Fatalf("%s: page %d slot %d holds item %d, want %d", name, p, k, ids[k], it.ID)
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

// TestSTRSelectAdversarial runs the slab selection on inputs that defeat
// a naive pivot — sorted, reverse-sorted, organ-pipe, and all equal on
// axis 0 so that every comparison falls through to the lower axes and the
// index — and holds every slab to the set a full sort puts there. Budgets
// 0 and 3 force the sort fallback at the top and part way down.
func TestSTRSelectAdversarial(t *testing.T) {
	const n = 100000
	for _, shape := range []string{"sorted", "reverse", "organ-pipe", "equal-axis-0"} {
		cent := make([]float64, 2*n)
		for i := 0; i < n; i++ {
			var c float64
			switch shape {
			case "sorted":
				c = float64(i)
			case "reverse":
				c = float64(n - i)
			case "organ-pipe":
				c = float64(min(i, n-1-i))
			case "equal-axis-0":
				c = float64(i % 3)
			}
			cent[i], cent[n+i] = c, c
			if shape == "equal-axis-0" {
				cent[i] = 1
			}
		}
		for axis := 0; axis < 2; axis++ {
			cmp := strCmp(cent, n, axis, 0)
			keys := make([]strKey, n)
			for i := range keys {
				keys[i] = strKey{c: cent[axis*n+i], i: int32(i)}
			}
			want := slices.Clone(keys)
			slices.SortFunc(want, cmp)
			for _, slabs := range []int{2, 13} {
				size := (n + slabs - 1) / slabs
				var cuts []int
				for c := size; c < n; c += size {
					cuts = append(cuts, c)
				}
				for _, budget := range []int{strSelectBudget(n), 0, 3} {
					got := slices.Clone(keys)
					strSelect(got, 0, cuts, cmp, budget)
					for lo := 0; lo < n; lo += size {
						slices.SortFunc(got[lo:min(lo+size, n)], cmp)
					}
					for k := range want {
						if got[k].i != want[k].i {
							t.Fatalf("%s/axis=%d/slabs=%d/budget=%d: rank %d holds key %d, want %d",
								shape, axis, slabs, budget, k, got[k].i, want[k].i)
						}
					}
				}
			}
		}
	}
}
