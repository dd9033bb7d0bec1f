// Package rstar implements the R*-tree of Beckmann, Kriegel, Schneider and
// Seeger (SIGMOD 1990): ChooseSubtree with minimum overlap enlargement,
// margin-driven split-axis selection, and forced reinsertion. It also
// provides an STR (sort-tile-recursive) bulk loader.
//
// Per the paper's setup (§5.1), the capacity of each leaf is one data page;
// after construction the indexed objects are laid out so that the contents
// of each leaf MBR appear contiguously on disk.
package rstar

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"pmjoin/internal/geom"
	"pmjoin/internal/index"
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

type entry struct {
	mbr   geom.MBR
	child *node // nil for leaf entries
	item  Item  // valid for leaf entries
}

type node struct {
	leaf    bool
	level   int // leaves are level 0
	entries []entry
	page    int // assigned by Pack for leaves; -1 otherwise
}

// Config controls node capacities.
type Config struct {
	// MaxLeafEntries is the number of objects per leaf (= per data page).
	MaxLeafEntries int
	// MaxBranchEntries is the fanout of internal nodes.
	MaxBranchEntries int
	// MinFill is the minimum fill factor in [0.1, 0.5]; R* default 0.4.
	MinFill float64
	// ReinsertFraction is the fraction of entries force-reinserted on
	// overflow; R* default 0.3.
	ReinsertFraction float64
}

// DefaultConfig returns the R* defaults for the given leaf capacity.
func DefaultConfig(leafCap int) Config {
	return Config{
		MaxLeafEntries:   leafCap,
		MaxBranchEntries: 32,
		MinFill:          0.4,
		ReinsertFraction: 0.3,
	}
}

func (c *Config) validate() error {
	if c.MaxLeafEntries < 2 {
		return fmt.Errorf("rstar: MaxLeafEntries %d < 2", c.MaxLeafEntries)
	}
	if c.MaxBranchEntries < 2 {
		return fmt.Errorf("rstar: MaxBranchEntries %d < 2", c.MaxBranchEntries)
	}
	if c.MinFill <= 0 || c.MinFill > 0.5 {
		return fmt.Errorf("rstar: MinFill %g out of (0, 0.5]", c.MinFill)
	}
	if c.ReinsertFraction < 0 || c.ReinsertFraction > 0.5 {
		return fmt.Errorf("rstar: ReinsertFraction %g out of [0, 0.5]", c.ReinsertFraction)
	}
	return nil
}

// Tree is an R*-tree over Items.
type Tree struct {
	cfg    Config
	dim    int
	root   *node
	size   int
	packed [][]Item // data pages after Pack; nil before
}

// New creates an empty R*-tree for dim-dimensional data.
func New(dim int, cfg Config) (*Tree, error) {
	if dim < 1 {
		return nil, fmt.Errorf("rstar: dimension %d < 1", dim)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Tree{
		cfg:  cfg,
		dim:  dim,
		root: &node{leaf: true, page: -1},
	}, nil
}

// Size returns the number of indexed items.
func (t *Tree) Size() int { return t.size }

// Height returns the height of the tree (empty tree has height 1).
func (t *Tree) Height() int { return t.root.level + 1 }

func (t *Tree) maxEntries(n *node) int {
	if n.leaf {
		return t.cfg.MaxLeafEntries
	}
	return t.cfg.MaxBranchEntries
}

func (t *Tree) minEntries(n *node) int {
	m := int(t.cfg.MinFill * float64(t.maxEntries(n)))
	if m < 1 {
		m = 1
	}
	return m
}

// Insert adds an item using the R* insertion algorithm.
func (t *Tree) Insert(it Item) error {
	if it.MBR.Dim() != t.dim {
		return fmt.Errorf("rstar: item dimension %d, tree dimension %d", it.MBR.Dim(), t.dim)
	}
	if t.packed != nil {
		return fmt.Errorf("rstar: insert after Pack")
	}
	reinserted := make(map[int]bool) // levels that already reinserted this insertion
	t.insertEntry(entry{mbr: it.MBR.Clone(), item: it}, 0, reinserted)
	t.size++
	return nil
}

func (t *Tree) insertEntry(e entry, level int, reinserted map[int]bool) {
	n, path := t.chooseSubtree(e.mbr, level)
	n.entries = append(n.entries, e)
	t.adjustPath(path, e.mbr)
	if len(n.entries) > t.maxEntries(n) {
		t.overflowTreatment(n, path, reinserted)
	}
}

// chooseSubtree descends to the node at the given level following R*:
// minimum overlap enlargement when children are leaves, minimum area
// enlargement otherwise. It returns the target node and the path from root.
func (t *Tree) chooseSubtree(m geom.MBR, level int) (*node, []*node) {
	var path []*node
	n := t.root
	for n.level > level {
		path = append(path, n)
		childrenAreLeaves := n.level == level+1 && n.entries[0].child.leaf
		best := 0
		if childrenAreLeaves {
			best = t.pickMinOverlap(n, m)
		} else {
			best = t.pickMinAreaEnlargement(n, m)
		}
		n = n.entries[best].child
	}
	return n, path
}

func (t *Tree) pickMinAreaEnlargement(n *node, m geom.MBR) int {
	best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
	for i, e := range n.entries {
		u := geom.Union(e.mbr, m)
		area := e.mbr.Area()
		enl := u.Area() - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

func (t *Tree) pickMinOverlap(n *node, m geom.MBR) int {
	best := 0
	bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
	for i, e := range n.entries {
		u := geom.Union(e.mbr, m)
		var overlap float64
		for j, o := range n.entries {
			if j == i {
				continue
			}
			overlap += geom.Intersect(u, o.mbr).Area()
		}
		enl := u.Area() - e.mbr.Area()
		area := e.mbr.Area()
		if overlap < bestOverlap ||
			(overlap == bestOverlap && enl < bestEnl) ||
			(overlap == bestOverlap && enl == bestEnl && area < bestArea) {
			best, bestOverlap, bestEnl, bestArea = i, overlap, enl, area
		}
	}
	return best
}

// adjustPath refreshes the entry MBRs along the path bottom-up so every
// ancestor covers the newly inserted MBR.
func (t *Tree) adjustPath(path []*node, m geom.MBR) {
	for i := len(path) - 1; i >= 0; i-- {
		recomputeEntryMBRs(path[i])
	}
}

func recomputeEntryMBRs(n *node) {
	for j := range n.entries {
		if c := n.entries[j].child; c != nil {
			n.entries[j].mbr = nodeMBR(c)
		}
	}
}

func nodeMBR(n *node) geom.MBR {
	if len(n.entries) == 0 {
		return geom.MBR{}
	}
	m := n.entries[0].mbr.Clone()
	for _, e := range n.entries[1:] {
		m.ExtendMBR(e.mbr)
	}
	return m
}

func (t *Tree) overflowTreatment(n *node, path []*node, reinserted map[int]bool) {
	if n != t.root && !reinserted[n.level] && t.cfg.ReinsertFraction > 0 {
		reinserted[n.level] = true
		t.reinsert(n, path, reinserted)
		return
	}
	t.split(n, path, reinserted)
}

// reinsert removes the p entries farthest from the node center and
// re-inserts them (far reinsert), per the R* paper.
func (t *Tree) reinsert(n *node, path []*node, reinserted map[int]bool) {
	p := int(t.cfg.ReinsertFraction * float64(len(n.entries)))
	if p < 1 {
		p = 1
	}
	center := nodeMBR(n).Center()
	type distEntry struct {
		d float64
		e entry
	}
	des := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		des[i] = distEntry{d: geom.L2.Dist(e.mbr.Center(), center), e: e}
	}
	sort.Slice(des, func(i, j int) bool { return des[i].d > des[j].d })
	removed := make([]entry, p)
	for i := 0; i < p; i++ {
		removed[i] = des[i].e
	}
	n.entries = n.entries[:0]
	for _, de := range des[p:] {
		n.entries = append(n.entries, de.e)
	}
	for i := range path {
		recomputeEntryMBRs(path[i])
	}
	// Reinsert closest-first (reverse of removal order).
	for i := p - 1; i >= 0; i-- {
		t.insertEntry(removed[i], n.level, reinserted)
	}
}

// split performs the R* topological split: choose the axis with minimum
// margin sum, then the distribution with minimum overlap (ties: minimum
// area).
func (t *Tree) split(n *node, path []*node, reinserted map[int]bool) {
	minFill := t.minEntries(n)
	left, right := rstarSplit(n.entries, t.dim, minFill)

	n.entries = left
	sibling := &node{leaf: n.leaf, level: n.level, page: -1, entries: right}

	if n == t.root {
		newRoot := &node{
			leaf:  false,
			level: n.level + 1,
			page:  -1,
			entries: []entry{
				{mbr: nodeMBR(n), child: n},
				{mbr: nodeMBR(sibling), child: sibling},
			},
		}
		t.root = newRoot
		return
	}
	parent := path[len(path)-1]
	recomputeEntryMBRs(parent)
	parent.entries = append(parent.entries, entry{mbr: nodeMBR(sibling), child: sibling})
	for i := range path {
		recomputeEntryMBRs(path[i])
	}
	if len(parent.entries) > t.maxEntries(parent) {
		t.overflowTreatment(parent, path[:len(path)-1], reinserted)
	}
}

// rstarSplit partitions entries into two groups using R* axis and
// distribution selection.
func rstarSplit(entries []entry, dim, minFill int) (left, right []entry) {
	n := len(entries)
	bestAxis, bestByLow := 0, false
	bestMargin := math.Inf(1)
	for axis := 0; axis < dim; axis++ {
		for _, byLow := range []bool{true, false} {
			sorted := sortedCopy(entries, axis, byLow)
			var marginSum float64
			for k := minFill; k <= n-minFill; k++ {
				g1 := entriesMBR(sorted[:k])
				g2 := entriesMBR(sorted[k:])
				marginSum += g1.Margin() + g2.Margin()
			}
			if marginSum < bestMargin {
				bestMargin, bestAxis, bestByLow = marginSum, axis, byLow
			}
		}
	}
	sorted := sortedCopy(entries, bestAxis, bestByLow)
	bestK := minFill
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for k := minFill; k <= n-minFill; k++ {
		g1 := entriesMBR(sorted[:k])
		g2 := entriesMBR(sorted[k:])
		overlap := geom.Intersect(g1, g2).Area()
		area := g1.Area() + g2.Area()
		if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = k, overlap, area
		}
	}
	left = append([]entry(nil), sorted[:bestK]...)
	right = append([]entry(nil), sorted[bestK:]...)
	return left, right
}

func sortedCopy(entries []entry, axis int, byLow bool) []entry {
	out := append([]entry(nil), entries...)
	sort.SliceStable(out, func(i, j int) bool {
		if byLow {
			if out[i].mbr.Min[axis] != out[j].mbr.Min[axis] {
				return out[i].mbr.Min[axis] < out[j].mbr.Min[axis]
			}
			return out[i].mbr.Max[axis] < out[j].mbr.Max[axis]
		}
		if out[i].mbr.Max[axis] != out[j].mbr.Max[axis] {
			return out[i].mbr.Max[axis] < out[j].mbr.Max[axis]
		}
		return out[i].mbr.Min[axis] < out[j].mbr.Min[axis]
	})
	return out
}

func entriesMBR(es []entry) geom.MBR {
	if len(es) == 0 {
		return geom.MBR{}
	}
	m := es[0].mbr.Clone()
	for _, e := range es[1:] {
		m.ExtendMBR(e.mbr)
	}
	return m
}

// BulkLoadSTR builds a tree over items using sort-tile-recursive packing.
// It is deterministic. Its leaves are not near-full in high dimensions:
// slabs are cut without regard to the node capacity, and every slab's
// remainder becomes a short leaf. 34 433 60-d vectors at 8 a page take
// 5 761 pages where 4 305 would do, and 1 665 of them hold one vector.
// Rounding each slab up to a multiple of the capacity would fill them
// (ROADMAP item 2(b)).
func BulkLoadSTR(dim int, cfg Config, items []Item) (*Tree, error) {
	t, err := New(dim, cfg)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return t, nil
	}
	for _, it := range items {
		if it.MBR.Dim() != dim {
			return nil, fmt.Errorf("rstar: item dimension %d, tree dimension %d", it.MBR.Dim(), dim)
		}
	}
	if len(items) > math.MaxInt32 {
		return nil, fmt.Errorf("rstar: %d items exceed the bulk loader's 32-bit sort keys", len(items))
	}
	leafEntries := make([]entry, len(items))
	for i, it := range items {
		leafEntries[i] = entry{mbr: it.MBR, item: it}
	}
	leaves := strPack(leafEntries, dim, t.cfg.MaxLeafEntries, true, 0)
	// Like Insert, the tree keeps private copies of the items' MBRs, not the
	// caller's. They are made here, after packing, out of one backing array
	// in page order, so every later walk over the leaves (the parents' MBRs
	// below, Root) reads memory front to back.
	corners := make(geom.Vector, 2*dim*len(items))
	for _, n := range leaves {
		for k := range n.entries {
			lo, hi := corners[:dim:dim], corners[dim:2*dim:2*dim]
			corners = corners[2*dim:]
			copy(lo, n.entries[k].mbr.Min)
			copy(hi, n.entries[k].mbr.Max)
			n.entries[k].mbr = geom.MBR{Min: lo, Max: hi}
		}
	}
	level := 0
	nodes := leaves
	for len(nodes) > 1 {
		level++
		parentEntries := make([]entry, len(nodes))
		for i, c := range nodes {
			parentEntries[i] = entry{mbr: nodeMBR(c), child: c}
		}
		nodes = strPack(parentEntries, dim, t.cfg.MaxBranchEntries, false, level)
	}
	t.root = nodes[0]
	t.size = len(items)
	return t, nil
}

// strKey is one element of the permutation strPack sorts: the entry's
// index, its centre on the axis being sorted, and its position in the group
// before that sort. Breaking centre ties by position makes the order total,
// so an unstable sort yields exactly the stable sort's result.
type strKey struct {
	c    float64
	i, p int32
}

// strGroup is a run order[lo:hi] of the permutation. A done group has
// reached its final order and becomes exactly one node.
type strGroup struct {
	lo, hi int
	done   bool
}

// strPack tiles entries into nodes of capacity cap using STR: sort by the
// first dimension, cut into slabs, sort each slab by the next dimension, and
// so on, finally chunking into nodes. Every sort is a stable sort by MBR
// centre.
//
// The entries themselves never move until the end: the passes sort a
// permutation of (centre, index) keys and one gather applies it. A slab of
// at most capacity entries is never cut again — it stays one slab on every
// later axis — so the stable passes it still owes, axis a, a+1, …, dim−1,
// are replaced by the one stable sort they add up to: lexicographic by the
// centres on axis dim−1, then dim−2, …, down to a, ties keeping the current
// order. In high dimensions that is almost every pass (at 60-d every slab
// is final after ~13 axes).
func strPack(entries []entry, dim, capacity int, leaf bool, level int) []*node {
	centre := func(i int32, axis int) float64 {
		m := &entries[i].mbr
		return (m.Min[axis] + m.Max[axis]) / 2
	}
	byCentre := func(a, b strKey) int {
		switch {
		case a.c < b.c:
			return -1
		case b.c < a.c:
			return 1
		}
		return int(a.p - b.p)
	}
	sortAxis := func(g []strKey, axis int) {
		for k := range g {
			g[k].c, g[k].p = centre(g[k].i, axis), int32(k)
		}
		slices.SortFunc(g, byCentre)
	}
	owed := 0 // first axis the slab byOwedAxes is sorting has not been sorted by
	byOwedAxes := func(a, b strKey) int {
		for axis := dim - 1; axis >= owed; axis-- {
			ca, cb := centre(a.i, axis), centre(b.i, axis)
			switch {
			case ca < cb:
				return -1
			case cb < ca:
				return 1
			}
		}
		return 0
	}

	order := make([]strKey, len(entries))
	for i := range order {
		order[i].i = int32(i)
	}
	numNodes := (len(entries) + capacity - 1) / capacity
	groups := []strGroup{{lo: 0, hi: len(entries)}}
	var next []strGroup
	splitting := 1 // groups not yet done
	for axis := 0; axis < dim-1 && numNodes > 1 && splitting > 0; axis++ {
		slabsPerGroup := int(math.Ceil(math.Pow(float64(numNodes), 1/float64(dim-axis))))
		next = next[:0]
		splitting = 0
		for _, g := range groups {
			if g.done {
				next = append(next, g)
				continue
			}
			sortAxis(order[g.lo:g.hi], axis)
			slabSize := (g.hi - g.lo + slabsPerGroup - 1) / slabsPerGroup
			if slabSize < capacity {
				slabSize = capacity
			}
			for lo := g.lo; lo < g.hi; lo += slabSize {
				slab := strGroup{lo: lo, hi: min(lo+slabSize, g.hi)}
				if slab.hi-slab.lo <= capacity {
					owed = axis + 1
					slices.SortStableFunc(order[slab.lo:slab.hi], byOwedAxes)
					slab.done = true
				} else {
					splitting++
				}
				next = append(next, slab)
			}
		}
		groups, next = next, groups
	}

	// One gather applies the permutation; each node's entries are a
	// full-capacity-limited window of it, so an append reallocates instead of
	// running into the neighbour.
	packed := make([]entry, len(entries))
	out := make([]*node, 0, numNodes)
	for _, g := range groups {
		if !g.done {
			sortAxis(order[g.lo:g.hi], dim-1)
		}
		for k := g.lo; k < g.hi; k++ {
			packed[k] = entries[order[k].i]
		}
		for lo := g.lo; lo < g.hi; lo += capacity {
			hi := min(lo+capacity, g.hi)
			out = append(out, &node{
				leaf:    leaf,
				level:   level,
				page:    -1,
				entries: packed[lo:hi:hi],
			})
		}
	}
	return out
}

// Pack finalizes the tree for joining: leaves are numbered left to right and
// each leaf's items become one data page, so leaf contents are contiguous on
// disk (§5.1). It returns the page contents in page order.
func (t *Tree) Pack() [][]Item {
	if t.packed != nil {
		return t.packed
	}
	pages := [][]Item{}
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			if len(n.entries) == 0 {
				return // empty tree: the root leaf holds no page
			}
			n.page = len(pages)
			items := make([]Item, len(n.entries))
			for i, e := range n.entries {
				items[i] = e.item
			}
			pages = append(pages, items)
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(t.root)
	t.packed = pages
	return pages
}

// NumPages returns the number of data pages (after Pack).
func (t *Tree) NumPages() int { return len(t.packed) }

// Root exposes the MBR hierarchy for prediction-matrix construction. Pack
// must have been called; leaves carry their page numbers.
func (t *Tree) Root() *index.Node {
	if t.packed == nil {
		t.Pack()
	}
	var conv func(n *node) *index.Node
	conv = func(n *node) *index.Node {
		out := &index.Node{MBR: nodeMBR(n), Page: -1}
		if n.leaf {
			out.Page = n.page
			return out
		}
		out.Children = make([]*index.Node, len(n.entries))
		for i, e := range n.entries {
			out.Children[i] = conv(e.child)
		}
		return out
	}
	return conv(t.root)
}

// RangeSearch returns the IDs of all items whose MBR intersects q.
// It is used by tests as ground truth for the structural invariants.
func (t *Tree) RangeSearch(q geom.MBR) []int {
	var out []int
	var walk func(n *node)
	walk = func(n *node) {
		for _, e := range n.entries {
			if !e.mbr.Intersects(q) {
				continue
			}
			if n.leaf {
				out = append(out, e.item.ID)
			} else {
				walk(e.child)
			}
		}
	}
	walk(t.root)
	return out
}

// Validate checks the R*-tree structural invariants: MBR containment,
// uniform leaf level, and entry counts within capacity.
func (t *Tree) Validate() error {
	var walk func(n *node, isRoot bool) error
	walk = func(n *node, isRoot bool) error {
		if len(n.entries) > t.maxEntries(n) {
			return fmt.Errorf("rstar: node with %d entries exceeds capacity %d", len(n.entries), t.maxEntries(n))
		}
		if !isRoot && len(n.entries) < 1 {
			return fmt.Errorf("rstar: empty non-root node")
		}
		for _, e := range n.entries {
			if n.leaf {
				if e.child != nil {
					return fmt.Errorf("rstar: leaf entry with child")
				}
				continue
			}
			if e.child == nil {
				return fmt.Errorf("rstar: internal entry without child")
			}
			if e.child.level != n.level-1 {
				return fmt.Errorf("rstar: child level %d under node level %d", e.child.level, n.level)
			}
			got := nodeMBR(e.child)
			if !e.mbr.ContainsMBR(got) {
				return fmt.Errorf("rstar: entry MBR %v does not contain child MBR %v", e.mbr, got)
			}
			if err := walk(e.child, false); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, true)
}
