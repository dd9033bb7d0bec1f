// Package cluster partitions the marked entries of a prediction matrix into
// buffer-sized clusters: Square Clustering (SC, §7.1 / Figure 6) and
// Cost-based Clustering (CC, §7.2 / Figure 8).
//
// A cluster's pages are its marked rows plus its marked columns; Lemma 2:
// when rows+cols ≤ B, reading those pages suffices to join every marked
// entry of the cluster with no further I/O.
package cluster

import (
	"fmt"
	"slices"

	"pmjoin/internal/predmat"
)

// Cluster is one buffer-sized group of marked prediction-matrix entries.
type Cluster struct {
	Entries []predmat.Entry
	rows    []int // ascending distinct marked rows
	cols    []int // ascending distinct marked cols
}

// Rows returns the ascending distinct marked rows of the cluster.
func (c *Cluster) Rows() []int { return c.rows }

// Cols returns the ascending distinct marked columns of the cluster.
func (c *Cluster) Cols() []int { return c.cols }

// Pages returns rows+cols, the number of pages the cluster needs resident.
func (c *Cluster) Pages() int { return len(c.rows) + len(c.cols) }

// newCluster wraps entries with the distinct rows and cols they touch (in
// any order; copied into one allocation and sorted here).
func newCluster(entries []predmat.Entry, rows, cols []int) *Cluster {
	pages := make([]int, len(rows)+len(cols))
	copy(pages, rows)
	copy(pages[len(rows):], cols)
	c := &Cluster{Entries: entries, rows: pages[:len(rows):len(rows)], cols: pages[len(rows):]}
	slices.Sort(c.rows)
	slices.Sort(c.cols)
	return c
}

// windows copies list(k) for every k in keys into one backing array and
// returns, indexed 0..n-1, each key's window of it (nil for other indices).
// Windows are capped, so shrinking one in place never touches its neighbour.
func windows(n, total int, keys []int, list func(int) []int) [][]int {
	out := make([][]int, n)
	buf := make([]int, 0, total)
	for _, k := range keys {
		lo := len(buf)
		buf = append(buf, list(k)...)
		out[k] = buf[lo:len(buf):len(buf)]
	}
	return out
}

// stamps is a set over 0..n-1 that empties in O(1): members carry the
// current epoch.
type stamps struct {
	at    []int
	epoch int
}

func newStamps(n int) stamps     { return stamps{at: make([]int, n), epoch: 1} }
func (s *stamps) reset()         { s.epoch++ }
func (s *stamps) has(i int) bool { return s.at[i] == s.epoch }

// add inserts i and reports whether it was new.
func (s *stamps) add(i int) bool {
	if s.at[i] == s.epoch {
		return false
	}
	s.at[i] = s.epoch
	return true
}

// Validate checks that every cluster fits into a buffer of size b, that
// clusters are disjoint, and that together they cover exactly the marked
// entries of m.
func Validate(clusters []*Cluster, m *predmat.Matrix, b int) error {
	seen := make(map[predmat.Entry]struct{}, m.Marked())
	for i, c := range clusters {
		if c.Pages() > b {
			return fmt.Errorf("cluster %d needs %d pages > buffer %d", i, c.Pages(), b)
		}
		if len(c.Entries) == 0 {
			return fmt.Errorf("cluster %d is empty", i)
		}
		for _, e := range c.Entries {
			if !m.IsMarked(e.R, e.C) {
				return fmt.Errorf("cluster %d contains unmarked entry %v", i, e)
			}
			if _, dup := seen[e]; dup {
				return fmt.Errorf("entry %v assigned to multiple clusters", e)
			}
			seen[e] = struct{}{}
		}
	}
	if len(seen) != m.Marked() {
		return fmt.Errorf("clusters cover %d of %d marked entries", len(seen), m.Marked())
	}
	return nil
}

// SquareOptions tunes SC. The zero value follows the paper: clusters with an
// equal number of marked rows and columns (r = c = B/2).
type SquareOptions struct {
	// RowFraction is the fraction of the buffer devoted to rows; 0 means
	// 0.5 (the paper's square shape). The ablation benchmark sweeps it.
	RowFraction float64
}

// SquareOpts runs the SC algorithm: iteratively form clusters that take
// marked columns in ascending order (minimal width) and at most rowCap
// marked rows, with rowCap+colCap = b (Figure 6, observations 1-2 of
// Theorem 2). A cluster costs the pending entries of the columns it visits:
// they are windows of one copy of the CSC lists, compacted in place, and
// exhausted columns leave the walk.
func SquareOpts(m *predmat.Matrix, b int, opts SquareOptions) ([]*Cluster, error) {
	if b < 2 {
		return nil, fmt.Errorf("cluster: buffer %d < 2", b)
	}
	frac := opts.RowFraction
	if frac == 0 {
		frac = 0.5
	}
	if frac <= 0 || frac >= 1 {
		return nil, fmt.Errorf("cluster: row fraction %g outside (0,1)", frac)
	}
	rowCap := int(float64(b) * frac)
	if rowCap < 1 {
		rowCap = 1
	}
	colCap := b - rowCap
	if colCap < 1 {
		colCap = 1
		rowCap = b - 1
	}

	// pending[c] holds the unassigned rows of column c, ascending; live lists
	// the columns that still have some, ascending.
	remaining := m.Marked()
	pending := windows(m.Cols(), remaining, m.MarkedCols(), m.ColRows)
	live := slices.Clone(m.MarkedCols())

	entries := make([]predmat.Entry, 0, remaining)
	inRows := newStamps(m.Rows())
	rows := make([]int, 0, rowCap)
	cols := make([]int, 0, colCap)
	var clusters []*Cluster
	for remaining > 0 {
		start := len(entries)
		inRows.reset()
		rows, cols = rows[:0], cols[:0]
		keep, k := 0, 0
		for ; k < len(live) && len(cols) < colCap; k++ {
			c := live[k]
			p := pending[c]
			left := 0 // p[:left] is what stays pending
			for _, r := range p {
				if !inRows.has(r) && len(rows) >= rowCap {
					p[left] = r
					left++
					continue
				}
				if inRows.add(r) {
					rows = append(rows, r)
				}
				entries = append(entries, predmat.Entry{R: r, C: c})
			}
			if left < len(p) {
				cols = append(cols, c)
			}
			remaining -= len(p) - left
			pending[c] = p[:left]
			if left > 0 {
				live[keep] = c
				keep++
			}
		}
		live = append(live[:keep], live[k:]...)
		if len(entries) == start {
			return nil, fmt.Errorf("cluster: SC made no progress with %d entries remaining", remaining)
		}
		n := len(entries)
		clusters = append(clusters, newCluster(entries[start:n:n], rows, cols))
	}
	return clusters, nil
}
