// Package predmat builds and represents the prediction matrix of the paper
// (§5): a sparse boolean page×page matrix in which entry (i,j) is marked iff
// a lower-bounding distance predictor cannot rule out that page i of the
// first dataset and page j of the second dataset contribute to the join.
//
// Construction uses the hierarchical plane sweep of Figure 1 with the
// iterative intersection-refinement filter of Figure 2, which runs at most
// k rounds (default k=5) and stops when a round cannot pay for itself.
// Completeness (Theorem 1): if a result pair lives in page pair (i,j), then
// entry (i,j) is marked. Each sweep keeps the cells it marks; once every
// sweep has returned, Build hands those batches to FromEntries, which builds
// the finished matrix whole. A Matrix is never written after that.
package predmat

import (
	"fmt"
	"slices"
)

// Entry is one marked cell of the prediction matrix: row r (page of the
// first dataset) and column c (page of the second dataset).
type Entry struct {
	R, C int
}

// Matrix is a sparse boolean matrix over page pairs: compressed sparse row
// (CSR) plus the transposed CSC. FromEntries builds it whole, and nothing
// writes it afterwards, so a Matrix is read-only and safe to share.
type Matrix struct {
	rows, cols int

	rowPtr     []int // len rows+1; row r's columns are colIdx[rowPtr[r]:rowPtr[r+1]]
	colIdx     []int // ascending within each row
	colPtr     []int // len cols+1; column c's rows are rowIdx[colPtr[c]:colPtr[c+1]]
	rowIdx     []int // ascending within each column
	markedRows []int // ascending rows with at least one mark
	markedCols []int // ascending columns with at least one mark
}

// FromEntries returns the rows×cols matrix whose marked cells are the
// entries of marks, which may come in any order and repeat a cell within or
// across batches. It panics on a negative shape or an out-of-range mark
// (programming errors).
//
// It sorts by counting: it scatters the marks by column, and the transpose
// of that lists each row's columns in ascending order, a repeated cell's
// copies side by side, so one pass over each row drops the repeats. The
// transpose of the result is the CSC. The cost is O(marks + rows + cols),
// with no comparisons and no rows×cols state.
func FromEntries(rows, cols int, marks ...[]Entry) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("predmat: negative matrix shape %dx%d", rows, cols))
	}
	byCol := make([]int, cols+1)
	for _, batch := range marks {
		for _, e := range batch {
			if e.R < 0 || e.R >= rows || e.C < 0 || e.C >= cols {
				panic(fmt.Sprintf("predmat: mark (%d,%d) outside %dx%d", e.R, e.C, rows, cols))
			}
			byCol[e.C+1]++
		}
	}
	for c := 0; c < cols; c++ {
		byCol[c+1] += byCol[c]
	}
	rowsOf := make([]int, byCol[cols])
	next := slices.Clone(byCol[:cols])
	for _, batch := range marks {
		for _, e := range batch {
			rowsOf[next[e.C]] = e.R
			next[e.C]++
		}
	}
	rowPtr, colIdx := transpose(byCol, rowsOf, rows, make([]int, len(rowsOf)))
	w := 0
	for r := 0; r < rows; r++ {
		row := colIdx[rowPtr[r]:rowPtr[r+1]]
		rowPtr[r] = w // row r began at the old rowPtr[r], read above
		w += copy(colIdx[w:], slices.Compact(row))
	}
	rowPtr[rows] = w
	colIdx = colIdx[:w]
	colPtr, rowIdx := transpose(rowPtr, colIdx, cols, rowsOf)
	return &Matrix{
		rows: rows, cols: cols,
		rowPtr: rowPtr, colIdx: colIdx,
		colPtr: colPtr, rowIdx: rowIdx,
		markedRows: nonEmpty(rowPtr), markedCols: nonEmpty(colPtr),
	}
}

// transpose returns the transpose of a compressed matrix whose line i holds
// the entries idx[ptr[i]:ptr[i+1]], each below n: n lines, line j listing
// in ascending order the lines that hold j. It writes the entries over
// into, which has room for them all.
func transpose(ptr, idx []int, n int, into []int) (tPtr, tIdx []int) {
	tPtr = make([]int, n+1)
	for _, j := range idx {
		tPtr[j+1]++
	}
	for j := 0; j < n; j++ {
		tPtr[j+1] += tPtr[j]
	}
	tIdx = into[:len(idx)]
	next := slices.Clone(tPtr[:n])
	for i := 0; i+1 < len(ptr); i++ {
		for _, j := range idx[ptr[i]:ptr[i+1]] {
			tIdx[next[j]] = i
			next[j]++
		}
	}
	return tPtr, tIdx
}

// nonEmpty returns the ascending rows (or columns) i of a compressed matrix
// whose pointers ptr give them at least one mark.
func nonEmpty(ptr []int) []int {
	var out []int
	for i := 0; i+1 < len(ptr); i++ {
		if ptr[i+1] > ptr[i] {
			out = append(out, i)
		}
	}
	return out
}

// Rows returns the number of pages of the first dataset.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of pages of the second dataset.
func (m *Matrix) Cols() int { return m.cols }

// Marked returns the number of marked entries.
func (m *Matrix) Marked() int { return len(m.colIdx) }

// IsMarked reports whether entry (r,c) is marked, by binary search in the
// row.
func (m *Matrix) IsMarked(r, c int) bool {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		return false
	}
	_, found := slices.BinarySearch(m.colIdx[m.rowPtr[r]:m.rowPtr[r+1]], c)
	return found
}

// RowCols returns the ascending marked columns of row r (shared slice; do
// not modify).
func (m *Matrix) RowCols(r int) []int {
	return m.colIdx[m.rowPtr[r]:m.rowPtr[r+1]]
}

// ColRows returns the ascending marked rows of column c (shared slice; do
// not modify).
func (m *Matrix) ColRows(c int) []int {
	return m.rowIdx[m.colPtr[c]:m.colPtr[c+1]]
}

// MarkedRows returns the ascending list of rows with at least one mark
// (shared slice; do not modify).
func (m *Matrix) MarkedRows() []int {
	return m.markedRows
}

// MarkedCols returns the ascending list of columns with at least one mark
// (shared slice; do not modify).
func (m *Matrix) MarkedCols() []int {
	return m.markedCols
}

// Entries returns all marked entries in (row, col) order (fresh slice).
func (m *Matrix) Entries() []Entry {
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
	total := float64(m.rows) * float64(m.cols)
	if total == 0 {
		return 0
	}
	return float64(len(m.colIdx)) / total
}

// Full returns a fully marked rows×cols matrix. NLJ is pm-NLJ over a full
// matrix (§6), which tests exploit. It is built by FromEntries, as every
// other matrix is.
func Full(rows, cols int) *Matrix {
	all := make([]Entry, 0, max(rows, 0)*max(cols, 0))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			all = append(all, Entry{R: r, C: c})
		}
	}
	return FromEntries(rows, cols, all)
}
