// Package index defines the hierarchical MBR-tree view shared by every index
// structure in this repository (STR-packed R-tree, MR-index, MRS-index).
//
// The prediction-matrix construction (paper §5) only needs the hierarchy of
// MBRs with leaf MBRs pinned to single disk pages (Table 1: "the capacity of
// each MBR is set to one page size"). Each concrete index exports its node
// hierarchy as a *Node tree, decoupling matrix construction from index
// internals. The MR- and MRS-indexes also share their sliding-window page
// layout and tree, Windows.
package index

import (
	"fmt"

	"pmjoin/internal/geom"
)

// Node is one node of an MBR hierarchy. A node with no children is a leaf
// and covers exactly one data page (Page is its index in the dataset's page
// file). Internal nodes have Page == -1.
type Node struct {
	MBR      geom.MBR
	Page     int // data page index for leaves; -1 for internal nodes
	Children []*Node
}

// IsLeaf reports whether n covers a single data page.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Height returns the height of the tree rooted at n (a leaf has height 1).
func (n *Node) Height() int {
	h := 0
	for cur := n; cur != nil; {
		h++
		if len(cur.Children) == 0 {
			break
		}
		cur = cur.Children[0]
	}
	return h
}

// Leaves appends all leaves under n to dst in left-to-right order and
// returns the extended slice.
func (n *Node) Leaves(dst []*Node) []*Node {
	if n == nil {
		return dst
	}
	if n.IsLeaf() {
		return append(dst, n)
	}
	for _, c := range n.Children {
		dst = c.Leaves(dst)
	}
	return dst
}

// CountNodes returns the number of nodes in the tree rooted at n.
func (n *Node) CountNodes() int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += c.CountNodes()
	}
	return total
}

// Validate checks the structural invariants of the hierarchy: every internal
// node's MBR contains its children's MBRs, and every leaf names a
// non-negative page. It returns the first violation found.
func (n *Node) Validate() error {
	if n == nil {
		return fmt.Errorf("index: nil node")
	}
	if n.IsLeaf() {
		if n.Page < 0 {
			return fmt.Errorf("index: leaf with page %d", n.Page)
		}
		return nil
	}
	if n.Page != -1 {
		return fmt.Errorf("index: internal node with page %d", n.Page)
	}
	for _, c := range n.Children {
		if !n.MBR.ContainsMBR(c.MBR) && !c.MBR.IsEmpty() {
			return fmt.Errorf("index: child MBR %v escapes parent %v", c.MBR, n.MBR)
		}
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// buildHierarchy groups consecutive nodes under parents of at most fanout
// children until one root remains, and returns it (a childless node with
// page -1 if nodes is empty). Grouping consecutive pages keeps sibling
// leaves disk-contiguous.
func buildHierarchy(nodes []*Node, fanout int) *Node {
	for len(nodes) > 1 {
		var parents []*Node
		for lo := 0; lo < len(nodes); lo += fanout {
			hi := min(lo+fanout, len(nodes))
			mbr := nodes[lo].MBR.Clone()
			for _, c := range nodes[lo+1 : hi] {
				mbr.ExtendMBR(c.MBR)
			}
			parents = append(parents, &Node{
				MBR:      mbr,
				Page:     -1,
				Children: append([]*Node(nil), nodes[lo:hi]...),
			})
		}
		nodes = parents
	}
	if len(nodes) == 0 {
		return &Node{Page: -1}
	}
	return nodes[0]
}
