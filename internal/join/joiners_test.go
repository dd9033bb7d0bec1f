package join

import (
	"testing"

	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/kernel"
)

// vecPage returns the vector page whose object ids[i] is vecs[i].
func vecPage(ids []int, vecs ...geom.Vector) *disk.Page {
	return &disk.Page{Kind: disk.Vectors, IDs: ids, Flat: kernel.FlatOf(vecs)}
}

// seriesPage returns the series page whose window ids[i], starting at
// starts[i], is windows[i].
func seriesPage(ids, starts []int, windows [][]float64) *disk.Page {
	return &disk.Page{Kind: disk.Series, IDs: ids, Starts: starts, Flat: kernel.FlatOf(windows)}
}

// rows returns the rows of a vector or series page, as views of its block.
func rows(pg *disk.Page) [][]float64 {
	out := make([][]float64, len(pg.IDs))
	for i := range out {
		out[i] = pg.Flat.Row(i)
	}
	return out
}

// oneCell runs j over the one cell (a, b), emitting its pairs as object
// IDs, and returns the cell's comparisons and modeled CPU seconds.
func oneCell(j ObjectJoiner, a, b *disk.Page, emit func(idA, idB int)) (int64, float64) {
	var r, s Side
	r.add(a)
	s.add(b)
	var out CellOut
	j.JoinCells(&r, &s, []kernel.Cell{{}}, &out)
	for _, h := range out.Hits {
		emit(a.IDs[h.I], b.IDs[h.J])
	}
	return out.Comps, out.CPU[0]
}

func collectPairs() (func(int, int), *[][2]int) {
	var out [][2]int
	return func(a, b int) { out = append(out, [2]int{a, b}) }, &out
}

func TestVectorJoinerBasic(t *testing.T) {
	a := vecPage([]int{0, 1}, geom.Vector{0, 0}, geom.Vector{10, 10})
	b := vecPage([]int{100, 101}, geom.Vector{0.5, 0}, geom.Vector{10, 10.2})
	j := VectorJoiner{Norm: geom.L2, Eps: 1}
	emit, pairs := collectPairs()
	comps, cpu := oneCell(j, a, b, emit)
	if comps != 4 {
		t.Fatalf("comps = %d", comps)
	}
	if cpu <= 0 {
		t.Fatal("cpu not charged")
	}
	if len(*pairs) != 2 {
		t.Fatalf("pairs = %v", *pairs)
	}
}

func TestVectorJoinerSelfSkips(t *testing.T) {
	p := vecPage([]int{5, 6}, geom.Vector{0, 0}, geom.Vector{0, 0.1})
	j := VectorJoiner{Norm: geom.L2, Eps: 1, Self: true}
	emit, pairs := collectPairs()
	comps, _ := oneCell(j, p, p, emit)
	if comps != 1 { // only (5,6); (5,5), (6,6), (6,5) skipped
		t.Fatalf("comps = %d", comps)
	}
	if len(*pairs) != 1 || (*pairs)[0] != [2]int{5, 6} {
		t.Fatalf("pairs = %v", *pairs)
	}
}

func TestVectorJoinerWrongPayloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := seriesPage([]int{1}, []int{0}, [][]float64{{0, 0}})
	oneCell(VectorJoiner{Norm: geom.L2, Eps: 1}, p, p, func(int, int) {})
}

func TestSeriesJoinerBasic(t *testing.T) {
	a := seriesPage([]int{0, 1}, []int{0, 8}, [][]float64{{1, 2, 3}, {9, 9, 9}})
	b := seriesPage([]int{10}, []int{80}, [][]float64{{1, 2, 3.4}})
	j := SeriesJoiner{Eps: 0.5}
	emit, pairs := collectPairs()
	comps, cpu := oneCell(j, a, b, emit)
	if comps != 2 || cpu <= 0 {
		t.Fatalf("comps = %d cpu = %g", comps, cpu)
	}
	if len(*pairs) != 1 || (*pairs)[0] != [2]int{0, 10} {
		t.Fatalf("pairs = %v", *pairs)
	}
}

func TestSeriesJoinerSelfOverlapExclusion(t *testing.T) {
	// Two overlapping windows of the same series: identical content but
	// starts 4 apart; with ExcludeOverlap 8 they must be skipped.
	p := seriesPage([]int{0, 1}, []int{0, 4}, [][]float64{{1, 1, 1}, {1, 1, 1}})
	j := SeriesJoiner{Eps: 1, Self: true, ExcludeOverlap: 8}
	emit, pairs := collectPairs()
	oneCell(j, p, p, emit)
	if len(*pairs) != 0 {
		t.Fatalf("overlapping windows joined: %v", *pairs)
	}
	j.ExcludeOverlap = 2
	emit2, pairs2 := collectPairs()
	oneCell(j, p, p, emit2)
	if len(*pairs2) != 1 {
		t.Fatalf("non-overlapping pair missing: %v", *pairs2)
	}
}

func TestSeriesJoinerWrongPayloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := vecPage([]int{1}, geom.Vector{0, 0})
	oneCell(SeriesJoiner{Eps: 1}, p, p, func(int, int) {})
}

func TestStringJoinerFreqFilterThenEdit(t *testing.T) {
	mk := func(id int, s string) ([]byte, []int) {
		w := []byte(s)
		f := make([]int, 4)
		for _, c := range w {
			switch c {
			case 'A':
				f[0]++
			case 'C':
				f[1]++
			case 'G':
				f[2]++
			case 'T':
				f[3]++
			}
		}
		return w, f
	}
	wa, fa := mk(0, "ACGTACGT")
	wb, fb := mk(1, "ACGTACGA") // edit distance 1
	wc, fc := mk(2, "TTTTTTTT") // far away
	a := &disk.Page{Kind: disk.Strings, IDs: []int{0}, Starts: []int{0}, Windows: [][]byte{wa}, Freqs: [][]int{fa}}
	b := &disk.Page{Kind: disk.Strings, IDs: []int{10, 11}, Starts: []int{100, 200}, Windows: [][]byte{wb, wc}, Freqs: [][]int{fb, fc}}
	j := StringJoiner{MaxEdit: 2}
	emit, pairs := collectPairs()
	comps, cpu := oneCell(j, a, b, emit)
	if comps != 2 || cpu <= 0 {
		t.Fatalf("comps = %d", comps)
	}
	if len(*pairs) != 1 || (*pairs)[0] != [2]int{0, 10} {
		t.Fatalf("pairs = %v", *pairs)
	}
}

func TestStringJoinerSelfExclusion(t *testing.T) {
	w := []byte("ACGTACGT")
	f := []int{2, 2, 2, 2}
	p := &disk.Page{
		Kind:    disk.Strings,
		IDs:     []int{0, 1},
		Starts:  []int{0, 4},
		Windows: [][]byte{w, w},
		Freqs:   [][]int{f, f},
	}
	j := StringJoiner{MaxEdit: 2, Self: true, ExcludeOverlap: 8}
	emit, pairs := collectPairs()
	oneCell(j, p, p, emit)
	if len(*pairs) != 0 {
		t.Fatalf("overlap not excluded: %v", *pairs)
	}
}

func TestStringJoinerWrongPayloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := vecPage([]int{1}, geom.Vector{0, 0})
	oneCell(StringJoiner{MaxEdit: 1}, p, p, func(int, int) {})
}
