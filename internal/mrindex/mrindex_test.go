package mrindex

import (
	"math"
	"math/rand"
	"testing"

	"pmjoin/internal/geom"
)

func randSeries(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	v := 0.0
	for i := range out {
		v += rng.NormFloat64()
		out[i] = v
	}
	return out
}

func l2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestConfigValidation(t *testing.T) {
	s := randSeries(rand.New(rand.NewSource(1)), 100)
	cases := []Config{
		{Window: 0, Stride: 1, PageSamples: 64},
		{Window: 8, Stride: 0, PageSamples: 64},
		{Window: 8, Stride: 1, PageSamples: 4}, // page smaller than window
		{Window: 8, Stride: 1, PageSamples: 64, Features: 20},
	}
	for i, cfg := range cases {
		if _, err := Build(s, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if _, err := Build(s[:4], Config{Window: 8, Stride: 1, PageSamples: 64}); err == nil {
		t.Error("series shorter than window accepted")
	}
}

func TestWindowEnumeration(t *testing.T) {
	s := randSeries(rand.New(rand.NewSource(2)), 100)
	ix, err := Build(s, Config{Window: 10, Stride: 3, PageSamples: 40})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for st := 0; st+10 <= 100; st += 3 {
		want++
	}
	if ix.NumWindows() != want {
		t.Fatalf("windows = %d, want %d", ix.NumWindows(), want)
	}
}

func TestPageWindowsCoverAllWindowsInOrder(t *testing.T) {
	s := randSeries(rand.New(rand.NewSource(3)), 500)
	cfg := Config{Window: 16, Stride: 4, PageSamples: 64}
	ix, err := Build(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for p := 0; p < ix.NumPages(); p++ {
		ids, starts, windows := ix.PageWindows(p)
		if len(ids) == 0 {
			t.Fatalf("page %d empty", p)
		}
		if len(ids) > 13 { // (13-1)*4 + 16 = 64 samples
			t.Fatalf("page %d has %d windows, capacity 13", p, len(ids))
		}
		for k, id := range ids {
			if id != next {
				t.Fatalf("page %d: id %d, want %d", p, id, next)
			}
			if starts[k] != id*cfg.Stride {
				t.Fatalf("start %d != id*stride", starts[k])
			}
			if len(windows[k]) != cfg.Window {
				t.Fatalf("window length %d", len(windows[k]))
			}
			// Window content must alias the series at its start.
			if windows[k][0] != s[starts[k]] {
				t.Fatal("window content mismatch")
			}
			next++
		}
	}
	if next != ix.NumWindows() {
		t.Fatalf("pages cover %d of %d windows", next, ix.NumWindows())
	}
}

func TestHierarchyValidAndCoversFeatures(t *testing.T) {
	s := randSeries(rand.New(rand.NewSource(4)), 2000)
	ix, err := Build(s, Config{Window: 32, Stride: 8, PageSamples: 128})
	if err != nil {
		t.Fatal(err)
	}
	root := ix.Root()
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every window's feature must be inside the MBR of some leaf of its page.
	leaves := root.Leaves(nil)
	byPage := map[int][]geom.MBR{}
	for _, l := range leaves {
		byPage[l.Page] = append(byPage[l.Page], l.MBR)
	}
	for p := 0; p < ix.NumPages(); p++ {
		ids, _, windows := ix.PageWindows(p)
		for k, id := range ids {
			feat := PAA(windows[k], ix.Config().Features)
			covered := false
			for _, m := range byPage[p] {
				if m.Contains(feat) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("window %d feature not covered by page %d leaves", id, p)
			}
		}
	}
}

// TestPAALowerBound is the MR-index predictor property: for any two windows,
// scale * L2(PAA(a), PAA(b)) <= L2(a, b).
func TestPAALowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := randSeries(rng, 3000)
	ix, err := Build(s, Config{Window: 64, Stride: 16, PageSamples: 256, Features: 8})
	if err != nil {
		t.Fatal(err)
	}
	n := ix.NumWindows()
	for iter := 0; iter < 500; iter++ {
		i, k := rng.Intn(n), rng.Intn(n)
		a := s[i*16 : i*16+64]
		b := s[k*16 : k*16+64]
		lb := ix.Scale() * geom.L2.Dist(PAA(a, 8), PAA(b, 8))
		if lb > l2(a, b)+1e-9 {
			t.Fatalf("PAA bound %g > true distance %g", lb, l2(a, b))
		}
	}
}

func TestPAAKnownValues(t *testing.T) {
	w := []float64{1, 1, 2, 2, 3, 3, 4, 4}
	f := PAA(w, 4)
	want := geom.Vector{1, 2, 3, 4}
	for i := range want {
		if f[i] != want[i] {
			t.Fatalf("PAA = %v", f)
		}
	}
	// More features than samples degenerates gracefully.
	g := PAA([]float64{5, 6}, 4)
	if g[0] != 5 || g[1] != 6 {
		t.Fatalf("degenerate PAA = %v", g)
	}
}

func TestScaleIsSqrtSegment(t *testing.T) {
	s := randSeries(rand.New(rand.NewSource(7)), 200)
	ix, _ := Build(s, Config{Window: 32, Stride: 8, PageSamples: 64, Features: 8})
	if got, want := ix.Scale(), math.Sqrt(4); got != want {
		t.Fatalf("scale = %g, want %g", got, want)
	}
}

func TestWindowsPerPage(t *testing.T) {
	ix, err := Build(randSeries(rand.New(rand.NewSource(8)), 100), Config{Window: 10, Stride: 5, PageSamples: 50})
	if err != nil {
		t.Fatal(err)
	}
	// span = (n-1)*5 + 10 <= 50 -> n = 9 windows: (9-1)*5+10 = 50.
	if ids, _, _ := ix.PageWindows(0); len(ids) != 9 {
		t.Fatalf("windows per page = %d", len(ids))
	}
}
