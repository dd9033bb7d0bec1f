package mrsindex

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pmjoin/internal/geom"
	"pmjoin/internal/seqdist"
)

func randDNA(rng *rand.Rand, n int) []byte {
	bases := []byte("ACGT")
	out := make([]byte, n)
	for i := range out {
		out[i] = bases[rng.Intn(4)]
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	s := randDNA(rand.New(rand.NewSource(1)), 200)
	cases := []Config{
		{Window: 0, Stride: 1, PageBytes: 64},
		{Window: 8, Stride: 0, PageBytes: 64},
		{Window: 80, Stride: 1, PageBytes: 64},
	}
	for i, cfg := range cases {
		if _, err := Build(s, seqdist.DNA, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := Build(s[:4], seqdist.DNA, Config{Window: 8, Stride: 1, PageBytes: 64}); err == nil {
		t.Error("short sequence accepted")
	}
}

func TestFrequencyVectorsMatchRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randDNA(rng, 500)
	for _, stride := range []int{1, 3, 16} {
		ix, err := Build(s, seqdist.DNA, Config{Window: 24, Stride: stride, PageBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < ix.NumPages(); p++ {
			ids, starts, _, freqs := ix.PageWindows(p)
			for k, i := range ids {
				st := starts[k]
				want := seqdist.DNA.FreqVector(s[st : st+24])
				if got := freqs[k]; !slices.Equal(got, want) {
					t.Fatalf("stride %d window %d: freq %v != %v", stride, i, got, want)
				}
			}
		}
	}
}

func TestPageWindowsCoverAll(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randDNA(rng, 2000)
	cfg := Config{Window: 32, Stride: 8, PageBytes: 256}
	ix, err := Build(s, seqdist.DNA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for p := 0; p < ix.NumPages(); p++ {
		ids, starts, windows, freqs := ix.PageWindows(p)
		if len(ids) != len(starts) || len(ids) != len(windows) || len(ids) != len(freqs) {
			t.Fatal("parallel slice length mismatch")
		}
		for k, id := range ids {
			if id != next {
				t.Fatalf("id %d, want %d", id, next)
			}
			if string(windows[k]) != string(s[starts[k]:starts[k]+32]) {
				t.Fatal("window content mismatch")
			}
			next++
		}
	}
	if next != ix.NumWindows() {
		t.Fatalf("covered %d of %d", next, ix.NumWindows())
	}
}

func TestHierarchyCoversFreqVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := randDNA(rng, 3000)
	ix, err := Build(s, seqdist.DNA, Config{Window: 50, Stride: 10, PageBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	root := ix.Root()
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
	leaves := root.Leaves(nil)
	byPage := map[int][]geom.MBR{}
	for _, l := range leaves {
		if l.Page < 0 || l.Page >= ix.NumPages() {
			t.Fatalf("leaf page %d out of range", l.Page)
		}
		byPage[l.Page] = append(byPage[l.Page], l.MBR)
	}
	if len(byPage) != ix.NumPages() {
		t.Fatalf("leaves cover %d of %d pages", len(byPage), ix.NumPages())
	}
	for p := 0; p < ix.NumPages(); p++ {
		ids, _, _, freqs := ix.PageWindows(p)
		for k := range ids {
			v := make(geom.Vector, len(freqs[k]))
			for d, x := range freqs[k] {
				v[d] = float64(x)
			}
			ok := false
			for _, m := range byPage[p] {
				if m.Contains(v) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("window %d freq not covered by page %d boxes", ids[k], p)
			}
		}
	}
}

// TestPredictorLowerBoundsEditDistance: the full chain — box FD lower-bounds
// window FD which lower-bounds edit distance — for windows drawn from the
// built index.
func TestPredictorLowerBoundsEditDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randDNA(rng, 2000)
	ix, err := Build(s, seqdist.DNA, Config{Window: 40, Stride: 8, PageBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	leaves := ix.Root().Leaves(nil)
	pred := Predictor{}
	for iter := 0; iter < 300; iter++ {
		la := leaves[rng.Intn(len(leaves))]
		lb := leaves[rng.Intn(len(leaves))]
		bound := pred.LowerBound(la.MBR, lb.MBR)
		// Pick one window from each leaf's page and check the chain.
		idsA, _, winsA, freqsA := ix.PageWindows(la.Page)
		idsB, _, winsB, freqsB := ix.PageWindows(lb.Page)
		// Only windows actually covered by the leaf box qualify.
		for k := range idsA {
			va := toVec(freqsA[k])
			if !la.MBR.Contains(va) {
				continue
			}
			for m := range idsB {
				vb := toVec(freqsB[m])
				if !lb.MBR.Contains(vb) {
					continue
				}
				ed := seqdist.EditDistance(winsA[k], winsB[m])
				if bound > float64(ed) {
					t.Fatalf("box bound %g > edit distance %d", bound, ed)
				}
			}
			break // one pair per iteration keeps the test fast
		}
	}
}

func toVec(f []int) geom.Vector {
	v := make(geom.Vector, len(f))
	for i, x := range f {
		v[i] = float64(x)
	}
	return v
}

func TestPredictorEmptyBoxes(t *testing.T) {
	p := Predictor{}
	if got := p.LowerBound(geom.EmptyMBR(4), geom.NewMBR(geom.Vector{1, 2, 3, 4})); got < 1e300 {
		t.Fatalf("empty box bound = %g, want +Inf", got)
	}
}

// TestPredictorAllocatesNothing: a matrix build calls LowerBound once per
// meeting leaf pair, so for alphabets up to stackSymbols it must not
// allocate; past that it still gives FreqDistanceMBR of the integer hulls.
func TestPredictorAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := func(dim int) geom.MBR {
		m := geom.MBR{Min: make(geom.Vector, dim), Max: make(geom.Vector, dim)}
		for i := range m.Min {
			m.Min[i] = 10 * rng.Float64()
			m.Max[i] = m.Min[i] + 5*rng.Float64()
		}
		return m
	}
	p := Predictor{}
	for _, dim := range []int{4, stackSymbols, stackSymbols + 1} {
		a, b := box(dim), box(dim)
		hull := func(m geom.MBR) (lo, hi []int) {
			for i := range m.Min {
				lo = append(lo, int(math.Ceil(m.Min[i])))
				hi = append(hi, int(math.Floor(m.Max[i])))
			}
			return lo, hi
		}
		uMin, uMax := hull(a)
		vMin, vMax := hull(b)
		if got, want := p.LowerBound(a, b), float64(seqdist.FreqDistanceMBR(uMin, uMax, vMin, vMax)); got != want {
			t.Errorf("dim %d: LowerBound = %g, want %g", dim, got, want)
		}
		allocs := testing.AllocsPerRun(50, func() { p.LowerBound(a, b) })
		want := 0.0
		if dim > stackSymbols {
			want = 1
		}
		if allocs != want {
			t.Errorf("dim %d: LowerBound allocates %v objects, want %v", dim, allocs, want)
		}
	}
}

func TestCustomAlphabet(t *testing.T) {
	alpha, err := seqdist.NewAlphabet("01")
	if err != nil {
		t.Fatal(err)
	}
	s := []byte("0101010101110000101010101111000010101010")
	ix, err := Build(s, alpha, Config{Window: 8, Stride: 2, PageBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumWindows() == 0 || ix.NumPages() == 0 {
		t.Fatal("empty index")
	}
	if _, _, _, freqs := ix.PageWindows(0); len(freqs[0]) != 2 {
		t.Fatalf("freq dims = %d", len(freqs[0]))
	}
}

func TestWindowsPerPage(t *testing.T) {
	ix, err := Build(randDNA(rand.New(rand.NewSource(6)), 1000), seqdist.DNA, Config{Window: 100, Stride: 25, PageBytes: 500})
	if err != nil {
		t.Fatal(err)
	}
	// (n-1)*25 + 100 <= 500 -> n = 17.
	if ids, _, _, _ := ix.PageWindows(0); len(ids) != 17 {
		t.Fatalf("windows per page = %d", len(ids))
	}
}
