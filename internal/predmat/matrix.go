// Package predmat builds and represents the prediction matrix of the paper
// (§5): a sparse boolean page×page matrix in which entry (i,j) is marked iff
// a lower-bounding distance predictor cannot rule out that page i of the
// first dataset and page j of the second dataset contribute to the join.
//
// Construction uses the hierarchical plane sweep of Figure 1 with the
// iterative intersection-refinement filter of Figure 2, which runs at most
// k rounds (default k=5) and stops when a round cannot pay for itself.
// Completeness (Theorem 1): if a result pair lives in page pair (i,j), then
// entry (i,j) is marked.
package predmat

import (
	"fmt"
	"math/bits"
	"slices"
)

// Entry is one marked cell of the prediction matrix: row r (page of the
// first dataset) and column c (page of the second dataset).
type Entry struct {
	R, C int
}

// Matrix is a sparse boolean matrix over page pairs.
//
// Internally it is compressed sparse row (CSR) plus the transposed CSC, with
// buffered construction: Mark appends raw entries to a pending buffer in
// O(1), and the first read accessor folds them in — one dedup pass — via
// Finalize. That replaces the per-Mark sorted insertion (O(k) memmove per
// entry, quadratic per row) the construction hot path used to pay.
//
// A Matrix is not safe for concurrent use while marks are buffered. Finalize
// marks the boundary: Build returns finalized matrices, and a finalized
// matrix is read-only and safe to share. Marking it panics.
type Matrix struct {
	rows, cols int

	// pending buffers marks (duplicates allowed) until Finalize, which sets
	// final.
	pending []Entry
	final   bool

	rowPtr     []int // len rows+1; row r's columns are colIdx[rowPtr[r]:rowPtr[r+1]]
	colIdx     []int // ascending within each row
	colPtr     []int // len cols+1; column c's rows are rowIdx[colPtr[c]:colPtr[c+1]]
	rowIdx     []int // ascending within each column
	markedRows []int // ascending rows with at least one mark
	markedCols []int // ascending columns with at least one mark
}

// maxBitsetCells caps the shapes Finalize dedups through a transient
// rows×cols bitset at 1<<26 cells (8 MiB of words); larger shapes sort.
const maxBitsetCells = 1 << 26

// NewMatrix creates an empty rows×cols prediction matrix. It panics on a
// negative shape or one over 2³¹ pages a side, which the packed-key sort of
// Finalize cannot order.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 || rows > pack32Limit || cols > pack32Limit {
		panic(fmt.Sprintf("predmat: matrix shape %dx%d outside [0,%d] a side", rows, cols, pack32Limit))
	}
	return &Matrix{rows: rows, cols: cols}
}

// Rows returns the number of pages of the first dataset.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of pages of the second dataset.
func (m *Matrix) Cols() int { return m.cols }

// Marked returns the number of marked entries.
func (m *Matrix) Marked() int { m.Finalize(); return len(m.colIdx) }

// Mark sets entry (r,c). Marking twice is a no-op. An out-of-range mark,
// and a mark after the matrix was finalized, panic (programming errors).
// Marks are buffered: they cost O(1) here and are folded in — sorted and
// deduplicated — by the first read accessor (or an explicit Finalize).
func (m *Matrix) Mark(r, c int) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("predmat: mark (%d,%d) outside %dx%d", r, c, m.rows, m.cols))
	}
	if m.final {
		panic(fmt.Sprintf("predmat: mark (%d,%d) on a finalized matrix", r, c))
	}
	m.pending = append(m.pending, Entry{R: r, C: c})
}

// Finalize folds buffered marks into the CSR/CSC representation, once. Every
// read accessor calls it implicitly; calling it explicitly marks the
// boundary between the construction phase (single goroutine, or externally
// synchronized as in Build) and concurrent read-only use. It returns m.
//
// Shapes of at most maxBitsetCells cells dedup through a bitset with no
// comparison sort; larger shapes fall back to the packed-key sort.
func (m *Matrix) Finalize() *Matrix {
	if m.final {
		return m
	}
	m.rowPtr = make([]int, m.rows+1)
	if cells := uint64(m.rows) * uint64(m.cols); cells > 0 && cells <= maxBitsetCells {
		m.rowsFromBits()
	} else {
		m.rowsFromSort()
	}
	m.index()
	m.pending = nil
	m.final = true
	return m
}

// rowsFromBits fills the row counts rowPtr[1:] and the row-major colIdx
// through a rows×cols bitset, dropped on return: each pending mark is one
// O(1) bit-set (duplicates collapse for free), and one linear scan of the
// bitset lists the marks — ascending bit index is ascending (row, col), so
// colIdx comes out sorted and deduplicated with no comparisons. Cost
// O(pending + cells/64 + marked).
func (m *Matrix) rowsFromBits() {
	cols := uint64(m.cols)
	set := make([]uint64, (uint64(m.rows)*cols+63)/64)
	for _, e := range m.pending {
		idx := uint64(e.R)*cols + uint64(e.C)
		set[idx>>6] |= 1 << (idx & 63)
	}
	nnz := 0
	for _, w := range set {
		nnz += bits.OnesCount64(w)
	}
	m.colIdx = make([]int, 0, nnz)
	for wi, w := range set {
		base := uint64(wi) << 6
		for w != 0 {
			idx := base + uint64(bits.TrailingZeros64(w))
			w &= w - 1
			r := idx / cols
			m.rowPtr[r+1]++
			m.colIdx = append(m.colIdx, int(idx-r*cols))
		}
	}
}

// rowsFromSort is rowsFromBits by comparison sort, for shapes too large for
// the bitset (and degenerate 0×N / N×0 shapes).
func (m *Matrix) rowsFromSort() {
	ents := m.pending
	if !sortedRowMajor(ents) {
		sortRowMajor(ents)
	}
	m.colIdx = make([]int, 0, len(ents))
	for i, e := range ents {
		if i > 0 && e == ents[i-1] {
			continue // sorted, so duplicates are adjacent
		}
		m.rowPtr[e.R+1]++
		m.colIdx = append(m.colIdx, e.C)
	}
}

// index completes the representation from the row counts in rowPtr[1:] and
// the row-major colIdx: the row prefix sums, the CSC transpose and the
// marked row and column lists.
func (m *Matrix) index() {
	for r := 0; r < m.rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	m.colPtr = make([]int, m.cols+1)
	for _, c := range m.colIdx {
		m.colPtr[c+1]++
	}
	for c := 0; c < m.cols; c++ {
		m.colPtr[c+1] += m.colPtr[c]
	}
	m.rowIdx = make([]int, len(m.colIdx))
	fill := make([]int, m.cols)
	copy(fill, m.colPtr[:m.cols])
	for r := 0; r < m.rows; r++ {
		for _, c := range m.colIdx[m.rowPtr[r]:m.rowPtr[r+1]] {
			m.rowIdx[fill[c]] = r
			fill[c]++
		}
	}
	for r := 0; r < m.rows; r++ {
		if m.rowPtr[r+1] > m.rowPtr[r] {
			m.markedRows = append(m.markedRows, r)
		}
	}
	for c := 0; c < m.cols; c++ {
		if m.colPtr[c+1] > m.colPtr[c] {
			m.markedCols = append(m.markedCols, c)
		}
	}
}

// pack32Limit bounds a matrix side (NewMatrix), so that an entry packs into
// one uint64 key. Rows and columns count pages, so in practice they are
// always far below it.
const pack32Limit = 1 << 31

// sortRowMajor sorts ents into (row, col) order. Both coordinates fit in 32
// bits, so each entry packs into one uint64 and the sort runs on native
// integer comparisons instead of an indirect comparator.
func sortRowMajor(ents []Entry) {
	keys := make([]uint64, len(ents))
	for i, e := range ents {
		keys[i] = uint64(e.R)<<32 | uint64(uint32(e.C))
	}
	slices.Sort(keys)
	for i, k := range keys {
		ents[i] = Entry{R: int(k >> 32), C: int(uint32(k))}
	}
}

// sortedRowMajor reports whether ents is already in (row, col) order
// (duplicates allowed), letting in-order construction skip the sort.
func sortedRowMajor(ents []Entry) bool {
	for i := 1; i < len(ents); i++ {
		a, b := ents[i-1], ents[i]
		if b.R < a.R || (b.R == a.R && b.C < a.C) {
			return false
		}
	}
	return true
}

// IsMarked reports whether entry (r,c) is marked, by binary search in the
// row.
func (m *Matrix) IsMarked(r, c int) bool {
	m.Finalize()
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		return false
	}
	_, found := slices.BinarySearch(m.colIdx[m.rowPtr[r]:m.rowPtr[r+1]], c)
	return found
}

// RowCols returns the ascending marked columns of row r (shared slice; do
// not modify).
func (m *Matrix) RowCols(r int) []int {
	m.Finalize()
	return m.colIdx[m.rowPtr[r]:m.rowPtr[r+1]]
}

// ColRows returns the ascending marked rows of column c (shared slice; do
// not modify).
func (m *Matrix) ColRows(c int) []int {
	m.Finalize()
	return m.rowIdx[m.colPtr[c]:m.colPtr[c+1]]
}

// MarkedRows returns the ascending list of rows with at least one mark
// (shared slice; do not modify).
func (m *Matrix) MarkedRows() []int {
	m.Finalize()
	return m.markedRows
}

// MarkedCols returns the ascending list of columns with at least one mark
// (shared slice; do not modify).
func (m *Matrix) MarkedCols() []int {
	m.Finalize()
	return m.markedCols
}

// Entries returns all marked entries in (row, col) order (fresh slice).
func (m *Matrix) Entries() []Entry {
	m.Finalize()
	out := make([]Entry, 0, len(m.colIdx))
	for _, r := range m.markedRows {
		for _, c := range m.colIdx[m.rowPtr[r]:m.rowPtr[r+1]] {
			out = append(out, Entry{R: r, C: c})
		}
	}
	return out
}

// Density returns marked / (rows*cols), the page-level selectivity; it is 0
// for degenerate shapes (0×N, N×0).
func (m *Matrix) Density() float64 {
	m.Finalize()
	total := float64(m.rows) * float64(m.cols)
	if total == 0 {
		return 0
	}
	return float64(len(m.colIdx)) / total
}

// Full returns a fully marked rows×cols matrix. NLJ is pm-NLJ over a full
// matrix (§6), which tests exploit. It goes through the same Mark/Finalize
// path as every other construction, so all NewMatrix invariants hold.
func Full(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	m.pending = make([]Entry, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Mark(r, c)
		}
	}
	return m.Finalize()
}
