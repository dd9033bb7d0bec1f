package pmjoin

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pmjoin/internal/dataset"
)

// allMethods lists every join method. The cross-method agreement tests rely
// on all of them producing identical result sets.
var allMethods = []Method{NLJ, PMNLJ, RandomSC, SC, CC, EGO, BFRJ}

func randomVecs(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for d := range v {
			v[d] = rng.Float64()
		}
		out[i] = v
	}
	return out
}

// bruteVecCount counts pairs within eps under L2, with self semantics when
// self is true.
func bruteVecCount(a, b [][]float64, eps float64, self bool) int64 {
	var count int64
	for i, va := range a {
		for j, vb := range b {
			if self && i >= j {
				continue
			}
			var s float64
			for d := range va {
				x := va[d] - vb[d]
				s += x * x
			}
			if s <= eps*eps {
				count++
			}
		}
	}
	return count
}

func sortPairs(ps [][2]int) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}

func TestVectorJoinAllMethodsAgree(t *testing.T) {
	va := randomVecs(400, 2, 1)
	vb := randomVecs(300, 2, 2)
	const eps = 0.05

	sys := NewSystem(DiskModel{PageBytes: 256})
	da, err := sys.AddVectors("a", va, VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sys.AddVectors("b", vb, VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}

	want := bruteVecCount(va, vb, eps, false)
	if want == 0 {
		t.Fatal("test workload has no result pairs")
	}

	var reference [][2]int
	for _, m := range allMethods {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			res, err := sys.Join(da, db, Options{
				Method: m, Epsilon: eps, BufferPages: 16, CollectPairs: true, MaxPairs: 1 << 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count() != want {
				t.Fatalf("%v found %d pairs, brute force %d", m, res.Count(), want)
			}
			sortPairs(res.Pairs)
			if reference == nil {
				reference = res.Pairs
				return
			}
			if fmt.Sprint(res.Pairs) != fmt.Sprint(reference) {
				t.Fatalf("%v produced a different pair set", m)
			}
		})
	}
}

func TestVectorSelfJoinAllMethodsAgree(t *testing.T) {
	va := randomVecs(350, 2, 3)
	const eps = 0.04

	sys := NewSystem(DiskModel{PageBytes: 256})
	da, err := sys.AddVectors("a", va, VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteVecCount(va, va, eps, true)
	if want == 0 {
		t.Fatal("test workload has no result pairs")
	}
	for _, m := range allMethods {
		res, err := sys.Join(da, da, Options{Method: m, Epsilon: eps, BufferPages: 16})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Count() != want {
			t.Errorf("%v self join found %d pairs, brute force %d", m, res.Count(), want)
		}
	}
}

func TestStringJoinAllMethodsAgree(t *testing.T) {
	a := dataset.DNA(3000, 10)
	b := dataset.DNA(2500, 11)
	dataset.PlantHomologies(b, a, 6, 80, 0.02, 12)

	sys := NewSystem(DiskModel{PageBytes: 512})
	da, err := sys.AddString("a", a, StringOptions{Window: 64, Stride: 8})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sys.AddString("b", b, StringOptions{Window: 64, Stride: 8})
	if err != nil {
		t.Fatal(err)
	}
	var want int64 = -1
	for _, m := range allMethods {
		res, err := sys.Join(da, db, Options{Method: m, Epsilon: 4, BufferPages: 16})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if want < 0 {
			want = res.Count()
			if want == 0 {
				t.Fatal("string workload has no result pairs; planting failed")
			}
			continue
		}
		if res.Count() != want {
			t.Errorf("%v found %d pairs, NLJ found %d", m, res.Count(), want)
		}
	}
}

// TestSeriesSelfJoinSkipsOverlapAllMethods self-joins a sine wave: windows
// a period apart are equal, and windows a stride apart overlap and lie
// within ε too, so every method must skip exactly the overlapping pairs to
// agree with NLJ.
func TestSeriesSelfJoinSkipsOverlapAllMethods(t *testing.T) {
	s := make([]float64, 1200)
	for i := range s {
		s[i] = math.Sin(2 * math.Pi * float64(i) / 64)
	}
	sys := NewSystem(DiskModel{PageBytes: 1024})
	ds, err := sys.AddSeries("sine", s, SeriesOptions{Window: 32, Stride: 4})
	if err != nil {
		t.Fatal(err)
	}
	var want int64 = -1
	for _, m := range allMethods {
		res, err := sys.Join(ds, ds, Options{Method: m, Epsilon: 2, BufferPages: 16})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if want < 0 {
			if want = res.Count(); want == 0 {
				t.Fatal("sine workload has no result pairs")
			}
			continue
		}
		if res.Count() != want {
			t.Errorf("%v found %d pairs, NLJ found %d", m, res.Count(), want)
		}
	}
}

func TestSeriesSelfJoinAllMethodsAgree(t *testing.T) {
	s := dataset.RandomWalk(4000, 20)
	sys := NewSystem(DiskModel{PageBytes: 1024})
	ds, err := sys.AddSeries("walk", s, SeriesOptions{Window: 32, Stride: 4})
	if err != nil {
		t.Fatal(err)
	}
	var want int64 = -1
	for _, m := range allMethods {
		res, err := sys.Join(ds, ds, Options{Method: m, Epsilon: 3.0, BufferPages: 16})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if want < 0 {
			want = res.Count()
			continue
		}
		if res.Count() != want {
			t.Errorf("%v found %d pairs, NLJ found %d", m, res.Count(), want)
		}
	}
	if want == 0 {
		t.Log("series workload produced no pairs (acceptable but weak)")
	}
}
