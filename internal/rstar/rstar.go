// Package rstar builds the vector index of the join: an STR-packed R-tree,
// one leaf per page (§5.1). Both loaders tile their input with
// sort-tile-recursive packing (Leutenegger, Lopez and Edgington) into leaves
// of one data page each and group the leaves the same way up to one root,
// so the contents of each leaf MBR are laid out contiguously on disk and the
// MBR hierarchy is what prediction-matrix construction walks. LoadPoints
// packs vectors straight into row blocks; BulkLoadSTR packs Items. Both run
// the one packer, strPack, which splits each STR slab by selection over a
// column-major array of centres, so the two give the same tree for the same
// points. Given a Runner, both run the steps whose output is one disjoint
// range of the tree as its tasks; the tree does not depend on whether they
// do.
package rstar

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"pmjoin/internal/geom"
	"pmjoin/internal/index"
	"pmjoin/internal/pool"
)

// Item is one indexed object: a point or a spatial object with an MBR.
type Item struct {
	ID  int
	MBR geom.MBR
}

// PointItem builds an Item whose MBR degenerates to the point v.
func PointItem(id int, v geom.Vector) Item {
	return Item{ID: id, MBR: geom.NewMBR(v)}
}

// Config controls node capacities and where the load runs.
type Config struct {
	// MaxLeafEntries is the number of objects per leaf (= per data page).
	MaxLeafEntries int
	// MaxBranchEntries is the fanout of internal nodes.
	MaxBranchEntries int
	// Runner, when non-nil, runs the loader's independent ranges as tasks:
	// the centre transpose and input check, each STR pass's selections, the
	// final slab sorts, the leaf MBRs and, for LoadPoints, the row gather and
	// the page-order block move. Each task writes only its own range and
	// reads only what the inline loader reads, so the tree is the same to
	// the bit. The levels above the leaves and the page numbering stay
	// inline. A task may queue further tasks; only the loader, between its
	// steps, waits on the group.
	Runner *pool.Group
}

// split runs body over [0, n) in ranges of grain, or in one range inline,
// and returns once every range is done.
func split(w *pool.Group, n, grain int, body func(lo, hi int)) {
	if w == nil || n <= grain {
		if n > 0 {
			body(0, n)
		}
		return
	}
	for lo := 0; lo < n; lo += grain {
		w.Go(func() { body(lo, min(lo+grain, n)) })
	}
	w.Wait()
}

// Task sizes, each large enough that a task's work dwarfs submitting it.
const (
	rowGrain  = 2048 // input rows a task of the centre transpose checks
	nodeGrain = 256  // nodes a task of newLevel or of the page move fills
	keyGrain  = 4096 // STR keys a selection or sort task holds, bar the last
)

// DefaultConfig returns the given leaf capacity with a fanout of 32.
func DefaultConfig(leafCap int) Config {
	return Config{MaxLeafEntries: leafCap, MaxBranchEntries: 32}
}

// check rejects a tree dimension or capacity STR cannot pack with, and more
// entries than the packer's 32-bit keys can name.
func (cfg Config) check(dim, n int) error {
	if dim < 1 {
		return fmt.Errorf("rstar: dimension %d < 1", dim)
	}
	if cfg.MaxLeafEntries < 2 {
		return fmt.Errorf("rstar: MaxLeafEntries %d < 2", cfg.MaxLeafEntries)
	}
	if cfg.MaxBranchEntries < 2 {
		return fmt.Errorf("rstar: MaxBranchEntries %d < 2", cfg.MaxBranchEntries)
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("rstar: %d items exceed the bulk loader's 32-bit sort keys", n)
	}
	return nil
}

// Tree is a packed STR tree: its MBR hierarchy and its data pages.
type Tree struct {
	root  *index.Node
	pages [][]Item
}

// BulkLoadSTR builds a tree over items using sort-tile-recursive packing.
// It is deterministic. Its leaves are not near-full in high dimensions:
// slabs are cut without regard to the node capacity, and every slab's
// remainder becomes a short leaf. 34 433 60-d vectors at 8 a page take
// 5 761 pages where 4 305 would do, and 1 665 of them hold one vector.
// Rounding each slab up to a multiple of the capacity would fill them.
//
// The pages hold the caller's Items, MBRs included; the hierarchy's MBRs
// are the tree's own. For points it builds the tree LoadPoints builds.
func BulkLoadSTR(dim int, cfg Config, items []Item) (*Tree, error) {
	if err := cfg.check(dim, len(items)); err != nil {
		return nil, err
	}
	n := len(items)
	cent := make([]float64, dim*n)
	for i, it := range items {
		if it.MBR.Dim() != dim {
			return nil, fmt.Errorf("rstar: item dimension %d, tree dimension %d", it.MBR.Dim(), dim)
		}
		for a := range dim {
			cent[a*n+i] = (it.MBR.Min[a] + it.MBR.Max[a]) / 2
		}
	}
	if n == 0 {
		return &Tree{root: &index.Node{Page: -1}, pages: [][]Item{}}, nil
	}

	w := cfg.Runner
	order, cuts := strPack(w, cent, n, dim, cfg.MaxLeafEntries)
	packed := make([]Item, n)
	for k, key := range order {
		packed[k] = items[key.i]
	}
	leaves := newLevel(w, len(cuts)-1, dim, func(k int, m geom.MBR) {
		its := packed[cuts[k]:cuts[k+1]]
		copy(m.Min, its[0].MBR.Min)
		copy(m.Max, its[0].MBR.Max)
		for _, it := range its[1:] {
			extend(m, it.MBR.Min, it.MBR.Max)
		}
	})
	root, leafOf := stack(leaves, dim, cfg.MaxBranchEntries, cent)
	t := &Tree{root: root, pages: make([][]Item, len(leafOf))}
	for p, k := range leafOf {
		lo, hi := cuts[k], cuts[k+1]
		t.pages[p] = packed[lo:hi:hi]
	}
	return t, nil
}

// Pack returns the data pages in page order: leaf k's items are page k, so
// leaf contents are contiguous on disk (§5.1). The pages are shared with
// the tree and must not be modified.
func (t *Tree) Pack() [][]Item { return t.pages }

// NumPages returns the number of data pages.
func (t *Tree) NumPages() int { return len(t.pages) }

// Root returns the MBR hierarchy for prediction-matrix construction; each
// leaf carries its page number. Every call returns the same hierarchy: it is
// shared and read-only.
func (t *Tree) Root() *index.Node { return t.root }

// PointTree is a packed STR tree over points whose pages are row blocks.
type PointTree struct {
	root *index.Node
	ids  [][]int
	rows [][]float64
}

// LoadPoints packs vecs, which must all have dim finite coordinates, into
// the tree BulkLoadSTR builds over their PointItems. Object IDs are the
// indices into vecs. It refuses the lowest-index vector of the wrong length
// or with a NaN or ±Inf coordinate: no index order, MBR or distance bound is
// defined over such a value (a NaN compares false with everything, so
// sorting by it has no answer and a MinDist through it never passes "≤ ε").
//
// Each vector is read twice: once into the centre array, and once, after
// packing, into a row buffer in packed order, where its leaf's MBR is taken
// while the rows are cache-hot. Once the hierarchy has numbered the pages,
// each page's rows move as one block into the centre array, which is free
// by then, so that the pages lie in page order, as on disk (§5.1), and
// neighbouring pages of a cluster are neighbours in memory.
func LoadPoints(dim int, cfg Config, vecs [][]float64) (*PointTree, error) {
	if err := cfg.check(dim, len(vecs)); err != nil {
		return nil, err
	}
	n := len(vecs)
	cent := make([]float64, dim*n)
	w := cfg.Runner
	// Each range stops at its own first offender, so the first range that
	// has one holds the lowest.
	errs := make([]error, (n+rowGrain-1)/rowGrain)
	split(w, n, rowGrain, func(lo, hi int) { errs[lo/rowGrain] = centres(cent, n, dim, vecs, lo, hi) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if n == 0 {
		return &PointTree{root: &index.Node{Page: -1}}, nil
	}

	order, cuts := strPack(w, cent, n, dim, cfg.MaxLeafEntries)
	packed := make([]float64, n*dim)
	leaves := newLevel(w, len(cuts)-1, dim, func(k int, m geom.MBR) {
		lo, hi := cuts[k], cuts[k+1]
		for j := lo; j < hi; j++ {
			copy(packed[j*dim:(j+1)*dim], vecs[order[j].i])
		}
		copy(m.Min, packed[lo*dim:])
		copy(m.Max, packed[lo*dim:])
		for j := lo + 1; j < hi; j++ {
			row := packed[j*dim : (j+1)*dim]
			extend(m, row, row)
		}
	})
	root, leafOf := stack(leaves, dim, cfg.MaxBranchEntries, cent)

	// Page p's rows start at row at[p], the sum of the earlier pages' sizes.
	at := make([]int, len(leafOf)+1)
	for p, k := range leafOf {
		at[p+1] = at[p] + cuts[k+1] - cuts[k]
	}
	data, ids := cent[:n*dim:n*dim], make([]int, n)
	t := &PointTree{root: root, ids: make([][]int, len(leafOf)), rows: make([][]float64, len(leafOf))}
	split(w, len(leafOf), nodeGrain, func(first, last int) {
		for p := first; p < last; p++ {
			lo, hi, k := at[p], at[p+1], leafOf[p]
			copy(data[lo*dim:hi*dim], packed[cuts[k]*dim:cuts[k+1]*dim])
			for j, key := range order[cuts[k]:cuts[k+1]] {
				ids[lo+j] = int(key.i)
			}
			t.ids[p] = ids[lo:hi:hi]
			t.rows[p] = data[lo*dim : hi*dim : hi*dim]
		}
	})
	return t, nil
}

// centres checks vecs[lo:hi] and writes their centres into cent, column
// major, stopping at the first vector of the wrong length or with a
// non-finite coordinate.
func centres(cent []float64, n, dim int, vecs [][]float64, lo, hi int) error {
	for i := lo; i < hi; i++ {
		v := vecs[i]
		if len(v) != dim {
			return fmt.Errorf("rstar: vector %d has dim %d, want %d", i, len(v), dim)
		}
		var bad float64 // x-x is 0, or NaN where x is NaN or ±Inf
		for a, x := range v {
			bad += x - x
			cent[a*n+i] = (x + x) / 2 // a point's MBR centre, as BulkLoadSTR computes it
		}
		if bad != 0 {
			a := slices.IndexFunc(v, func(x float64) bool { return x-x != 0 })
			return fmt.Errorf("rstar: vector %d has non-finite coordinate %d (%g)", i, a, v[a])
		}
	}
	return nil
}

// NumPages returns the number of data pages.
func (t *PointTree) NumPages() int { return len(t.ids) }

// Page returns page p: its points' IDs and their coordinates, row-major.
// Both are shared with the tree and must not be modified.
func (t *PointTree) Page(p int) (ids []int, rows []float64) { return t.ids[p], t.rows[p] }

// Root returns the MBR hierarchy, as Tree.Root does.
func (t *PointTree) Root() *index.Node { return t.root }

// extend grows m to cover the box with corners lo and hi, as
// geom.MBR.ExtendMBR does for a non-empty box. It selects each corner's bits
// as an integer, which compiles to a conditional move: at a handful of rows
// a leaf, a branch per coordinate is mispredicted too often.
func extend(m geom.MBR, lo, hi []float64) {
	mn, mx := m.Min[:len(lo)], m.Max[:len(lo)]
	hi = hi[:len(lo)]
	for a, x := range lo {
		y := hi[a]
		l, h, xb, yb := math.Float64bits(mn[a]), math.Float64bits(mx[a]), math.Float64bits(x), math.Float64bits(y)
		if x < mn[a] {
			l = xb
		}
		if y > mx[a] {
			h = yb
		}
		mn[a], mx[a] = math.Float64frombits(l), math.Float64frombits(h)
	}
}

// newLevel makes count nodes. Node k carries k as its page, and the MBR
// that box(k, m) writes into m's corners; the corners of a level share one
// backing array. The boxes run as w's tasks, so box(k, …) may write only
// what belongs to node k.
func newLevel(w *pool.Group, count, dim int, box func(k int, m geom.MBR)) []*index.Node {
	nodes := make([]index.Node, count)
	corners := make(geom.Vector, 2*dim*count)
	out := make([]*index.Node, count)
	split(w, count, nodeGrain, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			c := corners[2*dim*k : 2*dim*(k+1) : 2*dim*(k+1)]
			m := geom.MBR{Min: c[:dim:dim], Max: c[dim:]}
			box(k, m)
			nodes[k] = index.Node{MBR: m, Page: k}
			out[k] = &nodes[k]
		}
	})
	return out
}

// stack groups the leaves level by level, each by STR over the centres of
// the level below's MBRs, up to one root, reusing cent for those centres.
// It then numbers the pages left to right, so leaf contents are contiguous
// on disk in the order a depth-first walk meets them (§5.1), and returns
// the root and, for each page, the index of the leaf that holds it. It runs
// inline: the levels above the leaves are small (181 nodes over a landsat
// side's 5 761 leaves).
func stack(nodes []*index.Node, dim, fanout int, cent []float64) (*index.Node, []int) {
	leafOf := make([]int, 0, len(nodes))
	for len(nodes) > 1 {
		n := len(nodes)
		cent = cent[:dim*n]
		for i, nd := range nodes {
			for a := range dim {
				cent[a*n+i] = (nd.MBR.Min[a] + nd.MBR.Max[a]) / 2
			}
		}
		order, cuts := strPack(nil, cent, n, dim, fanout)
		children := make([]*index.Node, n)
		for k, key := range order {
			children[k] = nodes[key.i]
		}
		parents := newLevel(nil, len(cuts)-1, dim, func(k int, m geom.MBR) {
			kids := children[cuts[k]:cuts[k+1]]
			copy(m.Min, kids[0].MBR.Min)
			copy(m.Max, kids[0].MBR.Max)
			for _, c := range kids[1:] {
				extend(m, c.MBR.Min, c.MBR.Max)
			}
		})
		for k, p := range parents {
			lo, hi := cuts[k], cuts[k+1]
			p.Page, p.Children = -1, children[lo:hi:hi]
		}
		nodes = parents
	}

	var number func(n *index.Node)
	number = func(n *index.Node) {
		if n.IsLeaf() {
			leafOf = append(leafOf, n.Page)
			n.Page = len(leafOf) - 1
			return
		}
		for _, c := range n.Children {
			number(c)
		}
	}
	number(nodes[0])
	return nodes[0], leafOf
}

// strKey is one element of the permutation strPack reorders: the entry's
// index, and its centre on the axis being split or sorted.
type strKey struct {
	c float64
	i int32
}

// strCmp orders keys lexicographically by their centres on axis, axis−1,
// …, bottom, then by index: key.c is the centre on axis, and the lower
// axes' centres are read from cent only on a tie. Ending on the index makes
// the order total.
func strCmp(cent []float64, n, axis, bottom int) func(a, b strKey) int {
	return func(a, b strKey) int {
		switch {
		case a.c < b.c:
			return -1
		case b.c < a.c:
			return 1
		}
		for ax := axis - 1; ax >= bottom; ax-- {
			ca, cb := cent[ax*n+int(a.i)], cent[ax*n+int(b.i)]
			switch {
			case ca < cb:
				return -1
			case cb < ca:
				return 1
			}
		}
		return int(a.i - b.i)
	}
}

// strGroup is a run order[lo:hi] of the permutation. A group of at most
// one node's entries is done: it is never split again.
type strGroup struct{ lo, hi int }

// strPack tiles n entries into nodes of capacity entries using STR, given
// their centres column-major: entry i's centre on axis a is cent[a*n+i].
// STR sorts by the first axis, cuts into slabs, sorts each slab by the next
// axis, and so on, finally chunking into nodes, every sort a stable sort by
// centre. It returns the entries in packed order, as keys whose i is the
// entry's index, and the node cuts: node k holds order[cuts[k]:cuts[k+1]].
//
// Starting from index order, the stable passes leave a group sorted
// lexicographically by (c_axis, c_axis−1, …, c_0, i) after the pass on
// axis. A slab's contents therefore depend on that total order only, not on
// the group's order, so each pass is a multi-way selection at the slab
// cuts, and a group gets its one sort at the end: by (c_dim−1, …, c_0, i),
// or by (c_dim−1, i) when no pass ran. A slab of at most capacity entries
// is one node on every later pass, so it is done; in high dimensions that
// ends the passes early (at 60-d every slab is done after ~13 axes).
//
// Groups touch disjoint runs of order, so each pass's selections and the
// final sorts run as w's tasks, a batch of small groups to a task.
func strPack(w *pool.Group, cent []float64, n, dim, capacity int) (order []strKey, cuts []int) {
	order = make([]strKey, n)
	for i := range order {
		order[i].i = int32(i)
	}
	// load sets each key's c to its centre on axis.
	load := func(keys []strKey, axis int) {
		col := cent[axis*n : (axis+1)*n]
		for k := range keys {
			keys[k].c = col[keys[k].i]
		}
	}
	numNodes := (n + capacity - 1) / capacity
	groups := []strGroup{{lo: 0, hi: n}}
	var next []strGroup
	splitting := 1 // groups not yet done
	for axis := 0; axis < dim-1 && numNodes > 1 && splitting > 0; axis++ {
		slabsPerGroup := int(math.Ceil(math.Pow(float64(numNodes), 1/float64(dim-axis))))
		slabSize := func(g strGroup) int { return max((g.hi-g.lo+slabsPerGroup-1)/slabsPerGroup, capacity) }
		cmp := strCmp(cent, n, axis, 0)
		eachBatch(w, groups, func(batch []strGroup) {
			// Room for every cut of the batch, as a slab holds at least
			// capacity keys: a forked selection may still hold an earlier
			// group's cuts, so none is overwritten.
			slabCuts := make([]int, 0, (batch[len(batch)-1].hi-batch[0].lo)/capacity)
			for _, g := range batch {
				keys, size := order[g.lo:g.hi], slabSize(g)
				if len(keys) <= capacity || size >= len(keys) {
					continue
				}
				from := len(slabCuts)
				for c := size; c < len(keys); c += size {
					slabCuts = append(slabCuts, c)
				}
				load(keys, axis)
				strSelectOn(w, keys, 0, slabCuts[from:], cmp, strSelectBudget(len(keys)))
			}
		})
		next = next[:0]
		splitting = 0
		for _, g := range groups {
			if g.hi-g.lo <= capacity {
				next = append(next, g)
				continue
			}
			size := slabSize(g)
			for lo := g.lo; lo < g.hi; lo += size {
				hi := min(lo+size, g.hi)
				if hi-lo > capacity {
					splitting++
				}
				next = append(next, strGroup{lo, hi})
			}
		}
		groups, next = next, groups
	}

	bottom := 0
	if numNodes <= 1 {
		bottom = dim - 1
	}
	cmp := strCmp(cent, n, dim-1, bottom)
	eachBatch(w, groups, func(batch []strGroup) {
		for _, g := range batch {
			keys := order[g.lo:g.hi]
			load(keys, dim-1)
			slices.SortFunc(keys, cmp)
		}
	})
	cuts = make([]int, 0, numNodes+1)
	for _, g := range groups {
		for lo := g.lo; lo < g.hi; lo += capacity {
			cuts = append(cuts, lo)
		}
	}
	return order, append(cuts, n)
}

// eachBatch runs body over runs of consecutive groups of at least keyGrain
// keys each, as w's tasks, and returns once all are done.
func eachBatch(w *pool.Group, groups []strGroup, body func([]strGroup)) {
	if w == nil {
		body(groups)
		return
	}
	first, keys := 0, 0
	for i, g := range groups {
		if keys += g.hi - g.lo; keys >= keyGrain || i == len(groups)-1 {
			batch := groups[first : i+1]
			w.Go(func() { body(batch) })
			first, keys = i+1, 0
		}
	}
	w.Wait()
}

// strSelectOn is strSelect with the two sides of a partition of more than
// keyGrain keys, when both hold cuts, selected as separate tasks of w. The
// sides are disjoint and each gets the budget strSelect would give it, so
// the keys end in the order strSelect leaves them in.
func strSelectOn(w *pool.Group, g []strKey, off int, cuts []int, cmp func(a, b strKey) int, budget int) {
	for len(g) > keyGrain && len(cuts) > 0 && budget > 0 {
		budget--
		p := strPartition(g, cmp)
		l := sort.SearchInts(cuts, off+p)
		r := sort.SearchInts(cuts, off+p+2)
		left, leftOff, leftCuts, leftBudget := g[:p], off, cuts[:l], budget
		g, off, cuts = g[p+1:], off+p+1, cuts[r:]
		switch {
		case len(cuts) == 0:
			g, off, cuts = left, leftOff, leftCuts
		case len(leftCuts) > 0:
			w.Go(func() { strSelectOn(w, left, leftOff, leftCuts, cmp, leftBudget) })
		}
	}
	strSelect(g, off, cuts, cmp, budget)
}

// strSelectBudget is the partition depth after which strSelect sorts a
// range of n keys instead: twice the depth of balanced splits.
func strSelectBudget(n int) int { return 2 * bits.Len(uint(n)) }

// strSelect reorders g, whose keys are distinct under cmp, so that at every
// cut c (ascending, with off < c < off+len(g)) the keys before g[c−off] are
// the c−off smallest: a multi-way nth-element. Each partition step spends
// one unit of budget; a range that runs out is sorted, which places every
// cut too.
func strSelect(g []strKey, off int, cuts []int, cmp func(a, b strKey) int, budget int) {
	for len(cuts) > 0 {
		if budget == 0 {
			slices.SortFunc(g, cmp)
			return
		}
		budget--
		p := strPartition(g, cmp)
		// Cuts at p and p+1 fall on the pivot's two sides; the rest lie
		// strictly inside one side.
		l := sort.SearchInts(cuts, off+p)
		r := sort.SearchInts(cuts, off+p+2)
		strSelect(g[:p], off, cuts[:l], cmp, budget)
		g, off, cuts = g[p+1:], off+p+1, cuts[r:]
	}
}

// strPartition moves a pivot of g to its sorted position p and returns p,
// with the smaller keys before it and the larger after.
func strPartition(g []strKey, cmp func(a, b strKey) int) int {
	m := strPivot(g, cmp)
	g[0], g[m] = g[m], g[0]
	pv := g[0]
	i, j := 1, len(g)-1
	for {
		for i <= j && cmp(g[i], pv) < 0 {
			i++
		}
		for i <= j && cmp(g[j], pv) > 0 {
			j--
		}
		if i > j {
			break
		}
		g[i], g[j] = g[j], g[i]
		i, j = i+1, j-1
	}
	g[0], g[j] = g[j], g[0]
	return j
}

// strPivot picks g's pivot: the median of its first, middle and last keys,
// or for long ranges Tukey's ninther, the median of three such medians.
func strPivot(g []strKey, cmp func(a, b strKey) int) int {
	n := len(g)
	a, b, c := 0, n/2, n-1
	if n >= 128 {
		s := n / 8
		a = median3(g, cmp, 0, s, 2*s)
		b = median3(g, cmp, b-s, b, b+s)
		c = median3(g, cmp, n-1-2*s, n-1-s, n-1)
	}
	return median3(g, cmp, a, b, c)
}

// median3 returns whichever of the indices a, b and c holds the median key.
func median3(g []strKey, cmp func(a, b strKey) int, a, b, c int) int {
	if cmp(g[b], g[a]) < 0 {
		a, b = b, a
	}
	if cmp(g[c], g[b]) < 0 {
		if cmp(g[c], g[a]) < 0 {
			return a
		}
		return c
	}
	return b
}
