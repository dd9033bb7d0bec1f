package pmjoin

import (
	"math/rand"
	"testing"

	"pmjoin/internal/dataset"
)

// TestRandomizedVectorAgreement fuzzes workload shape, dimensionality,
// epsilon, buffer size and page size, asserting that every method finds the
// same number of pairs as NLJ.
func TestRandomizedVectorAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized agreement sweep")
	}
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 8; iter++ {
		dim := []int{1, 2, 3, 5, 8}[rng.Intn(5)]
		nA := 100 + rng.Intn(300)
		nB := 100 + rng.Intn(300)
		pageBytes := []int{128, 256, 1024}[rng.Intn(3)]
		buffer := 6 + rng.Intn(30)
		self := rng.Intn(3) == 0

		sys := NewSystem(DiskModel{PageBytes: pageBytes})
		da, err := sys.AddVectors("a", randomVecs(nA, dim, int64(iter)), VectorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		db := da
		if !self {
			db, err = sys.AddVectors("b", randomVecs(nB, dim, int64(iter)+1000), VectorOptions{})
			if err != nil {
				t.Fatal(err)
			}
		}
		eps, err := sys.CalibrateEpsilon(da, db, 0.02+rng.Float64()*0.1)
		if err != nil {
			t.Fatal(err)
		}
		var want int64 = -1
		for _, m := range allMethods {
			res, err := sys.Join(da, db, Options{Method: m, Epsilon: eps, BufferPages: buffer, Seed: int64(iter)})
			if err != nil {
				t.Fatalf("iter %d (%v, dim=%d, B=%d, self=%v): %v", iter, m, dim, buffer, self, err)
			}
			if want < 0 {
				want = res.Count()
				continue
			}
			if res.Count() != want {
				t.Fatalf("iter %d (dim=%d eps=%g B=%d self=%v): %v found %d, NLJ found %d",
					iter, dim, eps, buffer, self, m, res.Count(), want)
			}
		}
	}
}

// TestRandomizedSequenceAgreement fuzzes string workloads.
func TestRandomizedSequenceAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized agreement sweep")
	}
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 4; iter++ {
		n := 4000 + rng.Intn(6000)
		window := 32 + 8*rng.Intn(4)
		stride := []int{4, 8, 16}[rng.Intn(3)]
		maxEdit := 2 + rng.Intn(4)
		buffer := 8 + rng.Intn(16)

		seq := dataset.DNA(n, int64(iter))
		dataset.PlantHomologiesAligned(seq, seq, 4, 3*window, 0.01, stride, int64(iter)+5)
		sys := NewSystem(DiskModel{PageBytes: 512})
		ds, err := sys.AddString("dna", seq, StringOptions{Window: window, Stride: stride})
		if err != nil {
			t.Fatal(err)
		}
		var want int64 = -1
		for _, m := range allMethods {
			res, err := sys.Join(ds, ds, Options{Method: m, Epsilon: float64(maxEdit), BufferPages: buffer, Seed: int64(iter)})
			if err != nil {
				t.Fatalf("iter %d %v: %v", iter, m, err)
			}
			if want < 0 {
				want = res.Count()
				continue
			}
			if res.Count() != want {
				t.Fatalf("iter %d (w=%d s=%d e=%d B=%d): %v found %d, NLJ found %d",
					iter, window, stride, maxEdit, buffer, m, res.Count(), want)
			}
		}
	}
}

// TestBufferSizeInvariance: results must not depend on the buffer size,
// only costs may.
func TestBufferSizeInvariance(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	const eps = 0.08
	var want int64 = -1
	var prevIO float64
	for _, b := range []int{6, 12, 48, 192} {
		res, err := sys.Join(da, db, Options{Method: SC, Epsilon: eps, BufferPages: b})
		if err != nil {
			t.Fatal(err)
		}
		if want < 0 {
			want = res.Count()
		} else if res.Count() != want {
			t.Fatalf("B=%d changed results: %d vs %d", b, res.Count(), want)
		}
		if prevIO > 0 && res.Report.IOSeconds > prevIO*1.3 {
			t.Fatalf("B=%d increased SC I/O markedly: %g after %g", b, res.Report.IOSeconds, prevIO)
		}
		prevIO = res.Report.IOSeconds
	}
}

// TestEpsilonMonotonicity: growing epsilon can only add result pairs.
func TestEpsilonMonotonicity(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	var prev int64 = -1
	var prevMarked int
	for _, eps := range []float64{0.01, 0.03, 0.06, 0.12} {
		res, err := sys.Join(da, db, Options{Method: SC, Epsilon: eps, BufferPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count() < prev {
			t.Fatalf("eps=%g lost results: %d after %d", eps, res.Count(), prev)
		}
		if res.MarkedEntries < prevMarked {
			t.Fatalf("eps=%g lost marks: %d after %d", eps, res.MarkedEntries, prevMarked)
		}
		prev = res.Count()
		prevMarked = res.MarkedEntries
	}
}

// TestDeterminism: identical inputs and seeds give identical reports.
func TestDeterminism(t *testing.T) {
	run := func() (int64, float64) {
		sys := NewSystem(DiskModel{PageBytes: 256})
		da, err := sys.AddVectors("a", randomVecs(300, 2, 77), VectorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Join(da, da, Options{Method: CC, Epsilon: 0.05, BufferPages: 12, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Count(), res.TotalSeconds()
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d, %g) vs (%d, %g)", c1, t1, c2, t2)
	}
}
