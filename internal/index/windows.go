package index

import (
	"fmt"

	"pmjoin/internal/geom"
)

// fanout is the number of children per internal node of a sliding-window
// tree.
const fanout = 16

// Windows is the sliding-window layout of the MR- and MRS-indexes (Table 1,
// §5.1): windows of one length start at Starts, one stride apart from the
// start of the sequence; consecutive windows fill one page at a time; and
// the index tree has one leaf box per window, carrying its page, under a
// hierarchy of consecutive nodes, so the contents of each leaf — and of each
// subtree — are contiguous on disk. Window i's id is i.
type Windows struct {
	Starts  []int // window start offsets, ascending
	window  int   // window length
	perPage int   // windows a page holds
}

// NewWindows lays out the windows of a sequence of n units on pages of
// pageUnits units. A page stores the units spanning its windows,
// (count-1)*stride + window.
func NewWindows(n, window, stride, pageUnits int) (Windows, error) {
	switch {
	case window < 1:
		return Windows{}, fmt.Errorf("window %d < 1", window)
	case stride < 1:
		return Windows{}, fmt.Errorf("stride %d < 1", stride)
	case pageUnits < window:
		return Windows{}, fmt.Errorf("page of %d units cannot hold a window of %d", pageUnits, window)
	case n < window:
		return Windows{}, fmt.Errorf("sequence of %d units shorter than window %d", n, window)
	}
	w := Windows{window: window, perPage: (pageUnits-window)/stride + 1}
	w.Starts = make([]int, 0, (n-window)/stride+1)
	for st := 0; st+window <= n; st += stride {
		w.Starts = append(w.Starts, st)
	}
	return w, nil
}

// Pages returns the number of data pages.
func (w Windows) Pages() int { return (len(w.Starts) + w.perPage - 1) / w.perPage }

// Page returns the ids [lo, hi) of page p's windows.
func (w Windows) Page(p int) (lo, hi int) {
	lo = p * w.perPage
	return lo, min(lo+w.perPage, len(w.Starts))
}

// Tree returns the index tree over the windows: leaf i is the box of
// points[i], window i's point in feature space, on window i's page, and
// parents group fanout consecutive nodes, level by level, up to the root.
// The leaves keep the points as their boxes' lower corners.
func (w Windows) Tree(points []geom.Vector) *Node {
	leaves := make([]*Node, len(points))
	for i, p := range points {
		leaves[i] = &Node{MBR: geom.MBR{Min: p, Max: p.Clone()}, Page: i / w.perPage}
	}
	return buildHierarchy(leaves, fanout)
}

// PageWindows returns the ids and start offsets of page p's windows, and the
// windows themselves as views of seq, the sequence w was laid out over.
func PageWindows[T any](w Windows, seq []T, p int) (ids, starts []int, windows [][]T) {
	lo, hi := w.Page(p)
	ids = make([]int, hi-lo)
	windows = make([][]T, hi-lo)
	for k := range ids {
		st := w.Starts[lo+k]
		ids[k] = lo + k
		windows[k] = seq[st : st+w.window]
	}
	return ids, w.Starts[lo:hi:hi], windows
}
