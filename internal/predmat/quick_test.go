package predmat

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"pmjoin/internal/geom"
)

// TestQuickMatrixMarkIdempotent: a cell marked any number of times, within
// one batch and across batches, is one entry, queryable from both axes.
func TestQuickMatrixMarkIdempotent(t *testing.T) {
	f := func(r, c uint8, repeats, batches uint8) bool {
		e := Entry{R: int(r), C: int(c)}
		marks := make([][]Entry, int(batches%4)+1)
		for i := 0; i < int(repeats%5)+1; i++ {
			k := i % len(marks)
			marks[k] = append(marks[k], e)
		}
		m := FromEntries(256, 256, marks...)
		if m.Marked() != 1 || !m.IsMarked(int(r), int(c)) {
			return false
		}
		rows := m.ColRows(int(c))
		cols := m.RowCols(int(r))
		return len(rows) == 1 && rows[0] == int(r) && len(cols) == 1 && cols[0] == int(c) &&
			slices.Equal(m.Entries(), []Entry{e})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRowColConsistency: after arbitrary marks, in unsorted batches
// that repeat cells, the row-wise and column-wise views describe the same
// entry set, and every accessor equals the map-based reference.
func TestQuickRowColConsistency(t *testing.T) {
	f := func(cells []uint16, cuts []uint8) bool {
		var marks [][]Entry
		var cur []Entry
		for i, cell := range cells {
			cur = append(cur, Entry{R: int(cell>>8) % 128, C: int(cell&0xff) % 128})
			if len(cuts) > 0 && cuts[i%len(cuts)]%4 == 0 {
				marks, cur = append(marks, cur), nil
				if i > 0 { // repeat the cell before in the next batch
					cur = append(cur, Entry{R: int(cells[i-1]>>8) % 128, C: int(cells[i-1]&0xff) % 128})
				}
			}
		}
		marks = append(marks, cur)
		m := FromEntries(128, 128, marks...)
		count := 0
		for _, r := range m.MarkedRows() {
			for _, c := range m.RowCols(r) {
				if !m.IsMarked(r, c) {
					return false
				}
				found := false
				for _, rr := range m.ColRows(c) {
					if rr == r {
						found = true
						break
					}
				}
				if !found {
					return false
				}
				count++
			}
		}
		checkMatrix(t, m, 128, 128, marks...)
		return count == m.Marked() && len(m.Entries()) == m.Marked()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNormPredictorLowerBound: for arbitrary point pairs, the predictor
// bound between their degenerate MBRs equals the scaled distance, and the
// bound between any enclosing boxes never exceeds it.
func TestQuickNormPredictorLowerBound(t *testing.T) {
	clamp := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1e3)
	}
	f := func(ax, ay, bx, by, gx, gy float64) bool {
		a := geom.Vector{clamp(ax), clamp(ay)}
		b := geom.Vector{clamp(bx), clamp(by)}
		boxA := geom.NewMBR(a)
		boxB := geom.NewMBR(b)
		grownA := boxA.Extended(math.Abs(clamp(gx)))
		grownB := boxB.Extended(math.Abs(clamp(gy)))
		p := NormPredictor{Norm: geom.L2}
		d := geom.L2.Dist(a, b)
		if math.Abs(p.LowerBound(boxA, boxB)-d) > 1e-9*(1+d) {
			return false
		}
		return p.LowerBound(grownA, grownB) <= d+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
