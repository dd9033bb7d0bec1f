// Package rstar builds the vector index of the join: an STR-packed R-tree,
// one leaf per page (§5.1). BulkLoadSTR tiles the items with
// sort-tile-recursive packing (Leutenegger, Lopez and Edgington) into
// leaves of one data page each and groups the leaves the same way up to one
// root, so the contents of each leaf MBR are laid out contiguously on disk
// and the MBR hierarchy is what prediction-matrix construction walks.
package rstar

import (
	"fmt"
	"math"
	"slices"

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

// Config controls node capacities.
type Config struct {
	// MaxLeafEntries is the number of objects per leaf (= per data page).
	MaxLeafEntries int
	// MaxBranchEntries is the fanout of internal nodes.
	MaxBranchEntries int
}

// DefaultConfig returns the given leaf capacity with a fanout of 32.
func DefaultConfig(leafCap int) Config {
	return Config{MaxLeafEntries: leafCap, MaxBranchEntries: 32}
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
// are the tree's own.
func BulkLoadSTR(dim int, cfg Config, items []Item) (*Tree, error) {
	if dim < 1 {
		return nil, fmt.Errorf("rstar: dimension %d < 1", dim)
	}
	if cfg.MaxLeafEntries < 2 {
		return nil, fmt.Errorf("rstar: MaxLeafEntries %d < 2", cfg.MaxLeafEntries)
	}
	if cfg.MaxBranchEntries < 2 {
		return nil, fmt.Errorf("rstar: MaxBranchEntries %d < 2", cfg.MaxBranchEntries)
	}
	if len(items) > math.MaxInt32 {
		return nil, fmt.Errorf("rstar: %d items exceed the bulk loader's 32-bit sort keys", len(items))
	}
	boxes := make([]geom.MBR, len(items))
	for i, it := range items {
		if it.MBR.Dim() != dim {
			return nil, fmt.Errorf("rstar: item dimension %d, tree dimension %d", it.MBR.Dim(), dim)
		}
		boxes[i] = it.MBR
	}
	if len(items) == 0 {
		return &Tree{root: &index.Node{Page: -1}, pages: [][]Item{}}, nil
	}

	// Leaves: leaf k holds packed[cuts[k]:cuts[k+1]] and, until the pages
	// are numbered below, carries k as its page.
	order, cuts := strPack(boxes, dim, cfg.MaxLeafEntries)
	packed := make([]Item, len(items))
	for k, key := range order {
		packed[k] = items[key.i]
	}
	leafCuts := cuts
	nodes := newLevel(boxes, order, cuts, dim)
	for k, n := range nodes {
		n.Page = k
	}

	// Internal levels: each groups the level below by STR over its MBRs.
	for len(nodes) > 1 {
		boxes = boxes[:len(nodes)]
		for i, n := range nodes {
			boxes[i] = n.MBR
		}
		order, cuts = strPack(boxes, dim, cfg.MaxBranchEntries)
		parents := newLevel(boxes, order, cuts, dim)
		children := make([]*index.Node, len(nodes))
		for k, key := range order {
			children[k] = nodes[key.i]
		}
		for k, p := range parents {
			lo, hi := cuts[k], cuts[k+1]
			p.Page, p.Children = -1, children[lo:hi:hi]
		}
		nodes = parents
	}

	// Pages are numbered left to right, so leaf contents are contiguous on
	// disk in the order a depth-first walk meets them (§5.1).
	t := &Tree{root: nodes[0], pages: make([][]Item, 0, len(leafCuts)-1)}
	var number func(n *index.Node)
	number = func(n *index.Node) {
		if n.IsLeaf() {
			lo, hi := leafCuts[n.Page], leafCuts[n.Page+1]
			n.Page = len(t.pages)
			t.pages = append(t.pages, packed[lo:hi:hi])
			return
		}
		for _, c := range n.Children {
			number(c)
		}
	}
	number(t.root)
	return t, nil
}

// newLevel makes one node per cut of order, each with the MBR of its boxes
// in packed order: the first box's corners, extended by the rest. The
// corners of a level share one backing array.
func newLevel(boxes []geom.MBR, order []strKey, cuts []int, dim int) []*index.Node {
	nodes := make([]index.Node, len(cuts)-1)
	corners := make(geom.Vector, 2*dim*len(nodes))
	out := make([]*index.Node, len(nodes))
	for k := range nodes {
		lo, hi := cuts[k], cuts[k+1]
		m := geom.MBR{Min: corners[:dim:dim], Max: corners[dim : 2*dim : 2*dim]}
		corners = corners[2*dim:]
		copy(m.Min, boxes[order[lo].i].Min)
		copy(m.Max, boxes[order[lo].i].Max)
		for _, key := range order[lo+1 : hi] {
			m.ExtendMBR(boxes[key.i])
		}
		nodes[k].MBR = m
		out[k] = &nodes[k]
	}
	return out
}

// strKey is one element of the permutation strPack sorts: the box's index,
// its centre on the axis being sorted, and its position in the group before
// that sort. Breaking centre ties by position makes the order total, so an
// unstable sort yields exactly the stable sort's result.
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

// strPack tiles boxes into nodes of capacity cap using STR: sort by the
// first dimension, cut into slabs, sort each slab by the next dimension, and
// so on, finally chunking into nodes. Every sort is a stable sort by MBR
// centre. It returns the boxes in packed order, as keys whose i is the
// box's index, and the node cuts: node k holds order[cuts[k]:cuts[k+1]].
//
// The passes sort a permutation of (centre, index) keys; the boxes never
// move. A slab of at most capacity boxes is never cut again — it stays one
// slab on every later axis — so the stable passes it still owes, axis a,
// a+1, …, dim−1, are replaced by the one stable sort they add up to:
// lexicographic by the centres on axis dim−1, then dim−2, …, down to a, ties
// keeping the current order. In high dimensions that is almost every pass
// (at 60-d every slab is final after ~13 axes).
func strPack(boxes []geom.MBR, dim, capacity int) (order []strKey, cuts []int) {
	centre := func(i int32, axis int) float64 {
		m := &boxes[i]
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

	order = make([]strKey, len(boxes))
	for i := range order {
		order[i].i = int32(i)
	}
	numNodes := (len(boxes) + capacity - 1) / capacity
	groups := []strGroup{{lo: 0, hi: len(boxes)}}
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

	cuts = make([]int, 0, numNodes+1)
	for _, g := range groups {
		if !g.done {
			sortAxis(order[g.lo:g.hi], dim-1)
		}
		for lo := g.lo; lo < g.hi; lo += capacity {
			cuts = append(cuts, lo)
		}
	}
	return order, append(cuts, len(boxes))
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
