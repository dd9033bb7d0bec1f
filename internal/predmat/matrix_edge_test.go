package predmat

import (
	"math/rand"
	"slices"
	"testing"
)

// checkMatrix compares every read accessor of m — CSR, CSC, the marked row
// and column lists, Entries, Marked, IsMarked and Density — with a map-based
// reference over the same marks.
func checkMatrix(t *testing.T, m *Matrix, rows, cols int, marks ...[]Entry) {
	t.Helper()
	set := map[Entry]bool{}
	for _, batch := range marks {
		for _, e := range batch {
			set[e] = true
		}
	}
	byRow, byCol := map[int][]int{}, map[int][]int{}
	var want []Entry
	for e := range set {
		byRow[e.R] = append(byRow[e.R], e.C)
		byCol[e.C] = append(byCol[e.C], e.R)
		want = append(want, e)
	}
	slices.SortFunc(want, compareEntries)
	if m.Rows() != rows || m.Cols() != cols {
		t.Fatalf("shape %dx%d, want %dx%d", m.Rows(), m.Cols(), rows, cols)
	}
	if m.Marked() != len(set) {
		t.Fatalf("Marked = %d, want %d", m.Marked(), len(set))
	}
	if got := m.Entries(); !slices.Equal(got, want) {
		t.Fatalf("Entries = %v, want %v", got, want)
	}
	for _, e := range want {
		if !m.IsMarked(e.R, e.C) {
			t.Fatalf("IsMarked(%d,%d) = false", e.R, e.C)
		}
	}
	var wantRows, wantCols []int
	for r := 0; r < rows; r++ {
		cs := byRow[r]
		slices.Sort(cs)
		if got := m.RowCols(r); !slices.Equal(got, cs) {
			t.Fatalf("RowCols(%d) = %v, want %v", r, got, cs)
		}
		if len(cs) > 0 {
			wantRows = append(wantRows, r)
		}
	}
	for c := 0; c < cols; c++ {
		rs := byCol[c]
		slices.Sort(rs)
		if got := m.ColRows(c); !slices.Equal(got, rs) {
			t.Fatalf("ColRows(%d) = %v, want %v", c, got, rs)
		}
		if len(rs) > 0 {
			wantCols = append(wantCols, c)
		}
	}
	if got := m.MarkedRows(); !slices.Equal(got, wantRows) {
		t.Fatalf("MarkedRows = %v, want %v", got, wantRows)
	}
	if got := m.MarkedCols(); !slices.Equal(got, wantCols) {
		t.Fatalf("MarkedCols = %v, want %v", got, wantCols)
	}
	want0 := 0.0
	if rows > 0 && cols > 0 {
		want0 = float64(len(set)) / (float64(rows) * float64(cols))
	}
	if d := m.Density(); d != want0 {
		t.Fatalf("Density = %g, want %g", d, want0)
	}
}

// randomBatches splits n random marks of a rows×cols matrix into batches of
// random sizes, unsorted, each mark repeated within its batch or in a later
// one with probability dup.
func randomBatches(rng *rand.Rand, rows, cols, n int, dup float64) [][]Entry {
	var batches [][]Entry
	var cur []Entry
	for i := 0; i < n; i++ {
		e := Entry{R: rng.Intn(rows), C: rng.Intn(cols)}
		cur = append(cur, e)
		if rng.Float64() < dup {
			cur = append(cur, e)
		}
		if rng.Intn(8) == 0 {
			batches = append(batches, cur)
			cur = nil
			if rng.Float64() < dup {
				cur = append(cur, e)
			}
		}
	}
	return append(batches, cur)
}

// TestDensityDegenerateShapes pins Density on 0×N and N×0 matrices: no cells
// means zero density, not NaN.
func TestDensityDegenerateShapes(t *testing.T) {
	for _, shape := range [][2]int{{0, 5}, {5, 0}, {0, 0}} {
		m := FromEntries(shape[0], shape[1])
		if d := m.Density(); d != 0 {
			t.Errorf("Density of %dx%d = %g, want 0", shape[0], shape[1], d)
		}
		if got := m.Marked(); got != 0 {
			t.Errorf("Marked of %dx%d = %d, want 0", shape[0], shape[1], got)
		}
	}
}

// TestEntriesEmptyMatrix pins Entries and the marked-row/col accessors on a
// matrix with no marks.
func TestEntriesEmptyMatrix(t *testing.T) {
	m := FromEntries(4, 4, nil, []Entry{})
	if e := m.Entries(); len(e) != 0 {
		t.Errorf("Entries of empty matrix = %v, want empty", e)
	}
	if r := m.MarkedRows(); len(r) != 0 {
		t.Errorf("MarkedRows of empty matrix = %v, want empty", r)
	}
	if c := m.MarkedCols(); len(c) != 0 {
		t.Errorf("MarkedCols of empty matrix = %v, want empty", c)
	}
	if m.IsMarked(0, 0) {
		t.Error("IsMarked(0,0) on empty matrix")
	}
	if cols := m.RowCols(2); len(cols) != 0 {
		t.Errorf("RowCols(2) of empty matrix = %v, want empty", cols)
	}
}

// TestIsMarkedBeyondBitset builds matrices of more than 2²⁶ cells, which an
// earlier construction deduplicated by a different path than smaller ones:
// unsorted batches with duplicates give the reference's accessors, and
// IsMarked answers out-of-range queries false.
func TestIsMarkedBeyondBitset(t *testing.T) {
	rows, cols := 1<<14, 1<<13
	corners := []Entry{{5000, 17}, {rows - 1, cols - 1}, {0, 0}, {5000, 17}}
	rng := rand.New(rand.NewSource(26))
	marks := append(randomBatches(rng, rows, cols, 3000, 0.3), corners, corners[:2])
	m := FromEntries(rows, cols, marks...)
	checkMatrix(t, m, rows, cols, marks...)
	for _, e := range corners {
		if !m.IsMarked(e.R, e.C) {
			t.Errorf("IsMarked(%d,%d) = false", e.R, e.C)
		}
	}
	if m.IsMarked(-1, 0) || m.IsMarked(0, cols) || m.IsMarked(rows, 0) {
		t.Error("IsMarked true out of range")
	}
}

// TestFullSharesMarkPath checks Full against FromEntries over the same cells
// in reverse order, split into overlapping batches, and on 0×N and N×0.
func TestFullSharesMarkPath(t *testing.T) {
	for _, shape := range [][2]int{{3, 2}, {0, 4}, {4, 0}, {1, 1}} {
		rows, cols := shape[0], shape[1]
		f := Full(rows, cols)
		var rev []Entry
		for r := rows - 1; r >= 0; r-- {
			for c := cols - 1; c >= 0; c-- {
				rev = append(rev, Entry{R: r, C: c})
			}
		}
		batches := [][]Entry{rev}
		if half := len(rev) / 2; half > 0 {
			batches = [][]Entry{rev[:half+1], rev[half/2:], rev[:half]}
		}
		m := FromEntries(rows, cols, batches...)
		checkMatrix(t, f, rows, cols, rev)
		checkMatrix(t, m, rows, cols, rev)
		if f.Marked() != rows*cols {
			t.Fatalf("Full(%d,%d) marks %d", rows, cols, f.Marked())
		}
		if rows*cols > 0 && f.Density() != 1 {
			t.Errorf("Full density = %g, want 1", f.Density())
		}
	}
}
