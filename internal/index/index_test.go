package index

import (
	"testing"

	"pmjoin/internal/geom"
)

func leaf(page int, lo, hi float64) *Node {
	return &Node{
		MBR:  geom.MBR{Min: geom.Vector{lo}, Max: geom.Vector{hi}},
		Page: page,
	}
}

func parent(children ...*Node) *Node {
	m := children[0].MBR.Clone()
	for _, c := range children[1:] {
		m.ExtendMBR(c.MBR)
	}
	return &Node{MBR: m, Page: -1, Children: children}
}

func TestLeafBasics(t *testing.T) {
	l := leaf(3, 0, 1)
	if !l.IsLeaf() || l.Height() != 1 || l.CountNodes() != 1 {
		t.Fatal("leaf basics")
	}
	if got := l.Leaves(nil); len(got) != 1 || got[0] != l {
		t.Fatal("leaf Leaves")
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchy(t *testing.T) {
	root := parent(parent(leaf(0, 0, 1), leaf(1, 1, 2)), parent(leaf(2, 2, 3)))
	if root.IsLeaf() {
		t.Fatal("root is leaf")
	}
	if root.Height() != 3 {
		t.Fatalf("height = %d", root.Height())
	}
	if root.CountNodes() != 6 {
		t.Fatalf("count = %d", root.CountNodes())
	}
	leaves := root.Leaves(nil)
	if len(leaves) != 3 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	for i, l := range leaves {
		if l.Page != i {
			t.Fatalf("leaf order: leaf %d has page %d", i, l.Page)
		}
	}
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsEscapingChild(t *testing.T) {
	bad := &Node{
		MBR:      geom.MBR{Min: geom.Vector{0}, Max: geom.Vector{1}},
		Page:     -1,
		Children: []*Node{leaf(0, 5, 6)},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("escaping child not detected")
	}
}

func TestValidateDetectsBadLeafPage(t *testing.T) {
	if err := leaf(-2, 0, 1).Validate(); err == nil {
		t.Fatal("negative leaf page not detected")
	}
}

func TestValidateDetectsInternalWithPage(t *testing.T) {
	n := parent(leaf(0, 0, 1))
	n.Page = 7
	if err := n.Validate(); err == nil {
		t.Fatal("internal node with page not detected")
	}
}

func TestValidateNil(t *testing.T) {
	var n *Node
	if err := n.Validate(); err == nil {
		t.Fatal("nil node not detected")
	}
}

func TestCountNodesNil(t *testing.T) {
	var n *Node
	if n.CountNodes() != 0 {
		t.Fatal("nil count")
	}
	if n.Leaves(nil) != nil {
		t.Fatal("nil leaves")
	}
}

func TestBuildHierarchy(t *testing.T) {
	var leaves []*Node
	for p := 0; p < 5; p++ {
		leaves = append(leaves, leaf(p, float64(p), float64(p)+1))
	}
	root := buildHierarchy(leaves, 2)
	if root.Height() != 4 || root.CountNodes() != 11 {
		t.Fatalf("height %d with %d nodes, want 4 with 11", root.Height(), root.CountNodes())
	}
	for i, l := range root.Leaves(nil) {
		if l != leaves[i] {
			t.Fatalf("leaf %d moved", i)
		}
	}
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
	if root.MBR.Min[0] != 0 || root.MBR.Max[0] != 5 {
		t.Fatalf("root MBR %v", root.MBR)
	}
	if one := buildHierarchy(leaves[:1], 2); one != leaves[0] {
		t.Fatal("a single node is not its own root")
	}
	if empty := buildHierarchy(nil, 2); !empty.IsLeaf() || empty.Page != -1 {
		t.Fatal("empty hierarchy")
	}
}

// TestWindowsOneLeafPerWindow: the sliding-window tree has one leaf per
// window, in window order, boxing exactly that window's point and carrying
// the page that stores it, and the pages cover the windows in order.
func TestWindowsOneLeafPerWindow(t *testing.T) {
	w, err := NewWindows(100, 10, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Starts) != 31 || w.perPage != 11 || w.Pages() != 3 {
		t.Fatalf("%d windows, %d a page, %d pages; want 31, 11, 3", len(w.Starts), w.perPage, w.Pages())
	}
	points := make([]geom.Vector, len(w.Starts))
	for i := range points {
		points[i] = geom.Vector{float64(i), float64(-i)}
	}
	root := w.Tree(points)
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
	leaves := root.Leaves(nil)
	if len(leaves) != len(w.Starts) {
		t.Fatalf("%d leaves for %d windows", len(leaves), len(w.Starts))
	}
	for i, l := range leaves {
		if l.Page != i/w.perPage || l.MBR.Min[0] != float64(i) || l.MBR.Max[1] != float64(-i) {
			t.Fatalf("leaf %d: page %d, box %v", i, l.Page, l.MBR)
		}
	}
	seq := make([]int, 100)
	for i := range seq {
		seq[i] = i
	}
	next := 0
	for p := 0; p < w.Pages(); p++ {
		ids, starts, windows := PageWindows(w, seq, p)
		for k, id := range ids {
			if id != next || starts[k] != 3*id || len(windows[k]) != 10 || windows[k][0] != starts[k] {
				t.Fatalf("page %d: window %d (start %d, %v), want %d", p, id, starts[k], windows[k], next)
			}
			next++
		}
	}
	if next != len(w.Starts) {
		t.Fatalf("pages cover %d of %d windows", next, len(w.Starts))
	}
	for _, bad := range [][4]int{{100, 0, 1, 40}, {100, 10, 0, 40}, {100, 10, 1, 8}, {8, 10, 1, 40}} {
		if _, err := NewWindows(bad[0], bad[1], bad[2], bad[3]); err == nil {
			t.Errorf("NewWindows%v accepted", bad)
		}
	}
}
