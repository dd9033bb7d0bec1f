package predmat

import "testing"

// TestDensityDegenerateShapes pins Density on 0×N and N×0 matrices: no cells
// means zero density, not NaN.
func TestDensityDegenerateShapes(t *testing.T) {
	for _, shape := range [][2]int{{0, 5}, {5, 0}, {0, 0}} {
		m := NewMatrix(shape[0], shape[1])
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
	m := NewMatrix(4, 4)
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

// TestMarkAfterFinalize: a matrix is read-only once a read has finalized
// it, so a later Mark panics, as an out-of-range one does, and leaves the
// finalized entries as they were.
func TestMarkAfterFinalize(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Mark(0, 1)
	m.Mark(2, 2)
	if got := m.Marked(); got != 2 { // implicit Finalize
		t.Fatalf("Marked = %d, want 2", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Mark after a read did not panic")
			}
		}()
		m.Mark(1, 0)
	}()
	if got := m.Entries(); len(got) != 2 || m.IsMarked(1, 0) {
		t.Fatalf("Entries after the rejected mark = %v", got)
	}
}

// TestIsMarkedBeyondBitset exercises IsMarked on a matrix whose cell count
// exceeds the cap of Finalize's bitset dedup, so it finalizes by sort.
func TestIsMarkedBeyondBitset(t *testing.T) {
	// 1<<14 × (1<<13) = 1<<27 cells > maxBitsetCells.
	rows, cols := 1<<14, 1<<13
	m := NewMatrix(rows, cols)
	m.Mark(0, 0)
	m.Mark(rows-1, cols-1)
	m.Mark(5000, 17)
	m.Finalize()
	for _, e := range []Entry{{0, 0}, {rows - 1, cols - 1}, {5000, 17}} {
		if !m.IsMarked(e.R, e.C) {
			t.Errorf("IsMarked(%d,%d) = false", e.R, e.C)
		}
	}
	if m.IsMarked(5000, 18) || m.IsMarked(1, 0) {
		t.Error("IsMarked true for unmarked cell")
	}
	if m.IsMarked(-1, 0) || m.IsMarked(0, cols) {
		t.Error("IsMarked true out of range")
	}
}

// TestFullSharesMarkPath checks Full against hand-marked construction.
func TestFullSharesMarkPath(t *testing.T) {
	f := Full(3, 2)
	m := NewMatrix(3, 2)
	// Reverse order: the sort in Finalize must converge to the same CSR.
	for r := 2; r >= 0; r-- {
		for c := 1; c >= 0; c-- {
			m.Mark(r, c)
		}
	}
	if f.Marked() != m.Marked() || f.Marked() != 6 {
		t.Fatalf("Marked: Full = %d, manual = %d, want 6", f.Marked(), m.Marked())
	}
	fe, me := f.Entries(), m.Entries()
	for i := range fe {
		if fe[i] != me[i] {
			t.Fatalf("entry %d: Full %v, manual %v", i, fe[i], me[i])
		}
	}
	if f.Density() != 1 {
		t.Errorf("Full density = %g, want 1", f.Density())
	}
}
