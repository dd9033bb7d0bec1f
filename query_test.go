package pmjoin

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func queryFixture(t *testing.T) (*System, *Dataset, [][]float64) {
	t.Helper()
	vecs := randomVecs(500, 2, 40)
	sys := NewSystem(DiskModel{PageBytes: 256})
	ds, err := sys.AddVectors("pts", vecs, VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sys, ds, vecs
}

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	sys, ds, vecs := queryFixture(t)
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 25; iter++ {
		center := []float64{rng.Float64(), rng.Float64()}
		eps := 0.02 + rng.Float64()*0.1
		res, err := sys.RangeQueryOpts(ds, center, eps, QueryOptions{BufferPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for id, v := range vecs {
			d := math.Hypot(v[0]-center[0], v[1]-center[1])
			if d <= eps {
				want = append(want, id)
			}
		}
		sort.Ints(want)
		if len(res.IDs) != len(want) {
			t.Fatalf("iter %d: %d results, want %d", iter, len(res.IDs), len(want))
		}
		for i := range want {
			if res.IDs[i] != want[i] {
				t.Fatal("result mismatch")
			}
		}
		if len(res.IDs) > 0 && (res.PageReads == 0 || res.IOSeconds <= 0) {
			t.Fatal("query I/O not charged")
		}
		if res.PageReads > int64(ds.Pages()) {
			t.Fatal("range query read more pages than exist")
		}
	}
}

func TestNearestNeighborsMatchBruteForce(t *testing.T) {
	sys, ds, vecs := queryFixture(t)
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 25; iter++ {
		center := []float64{rng.Float64(), rng.Float64()}
		k := 1 + rng.Intn(12)
		res, err := sys.NearestNeighborsOpts(ds, center, k, QueryOptions{BufferPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IDs) != k || len(res.Distances) != k {
			t.Fatalf("got %d results for k=%d", len(res.IDs), k)
		}
		dists := make([]float64, len(vecs))
		for id, v := range vecs {
			dists[id] = math.Hypot(v[0]-center[0], v[1]-center[1])
		}
		sorted := append([]float64(nil), dists...)
		sort.Float64s(sorted)
		for i := 0; i < k; i++ {
			if d := res.Distances[i] - sorted[i]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("iter %d: distance %d = %g, want %g", iter, i, res.Distances[i], sorted[i])
			}
			if d := dists[res.IDs[i]] - res.Distances[i]; d > 1e-12 || d < -1e-12 {
				t.Fatal("ID does not match its distance")
			}
		}
	}
}

func TestNearestNeighborsPrunesPages(t *testing.T) {
	sys, ds, _ := queryFixture(t)
	res, err := sys.NearestNeighborsOpts(ds, []float64{0.5, 0.5}, 3, QueryOptions{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Best-first search should touch a small fraction of the pages.
	if res.PageReads > int64(ds.Pages())/2 {
		t.Fatalf("kNN read %d of %d pages", res.PageReads, ds.Pages())
	}
}

func TestQueryOptionsMaxResults(t *testing.T) {
	sys, ds, vecs := queryFixture(t)
	center := []float64{0.5, 0.5}
	full, err := sys.RangeQueryOpts(ds, center, 0.3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.IDs) < 3 {
		t.Fatalf("workload too sparse: %d in range", len(full.IDs))
	}
	if full.Truncated {
		t.Fatal("uncapped query reported truncation")
	}

	capped, err := sys.RangeQueryOpts(ds, center, 0.3, QueryOptions{MaxResults: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.IDs) != 2 || !capped.Truncated {
		t.Fatalf("capped range query: %d IDs, truncated=%v", len(capped.IDs), capped.Truncated)
	}
	// The cap keeps the smallest IDs (result order is ascending ID).
	if capped.IDs[0] != full.IDs[0] || capped.IDs[1] != full.IDs[1] {
		t.Fatalf("capped IDs %v, full prefix %v", capped.IDs, full.IDs[:2])
	}

	nn, err := sys.NearestNeighborsOpts(ds, center, 10, QueryOptions{MaxResults: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(nn.IDs) != 3 || !nn.Truncated {
		t.Fatalf("capped kNN: %d IDs, truncated=%v", len(nn.IDs), nn.Truncated)
	}
	// Still the true 3 nearest.
	dists := make([]float64, 0, len(vecs))
	for _, v := range vecs {
		dists = append(dists, math.Hypot(v[0]-center[0], v[1]-center[1]))
	}
	sort.Float64s(dists)
	for i := range nn.Distances {
		if d := nn.Distances[i] - dists[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("capped kNN distance %d = %g, want %g", i, nn.Distances[i], dists[i])
		}
	}
}

func TestQueryValidation(t *testing.T) {
	sys, ds, _ := queryFixture(t)
	if _, err := sys.RangeQueryOpts(ds, []float64{0.5}, 0.1, QueryOptions{BufferPages: 8}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := sys.RangeQueryOpts(ds, []float64{0.5, 0.5}, -1, QueryOptions{BufferPages: 8}); err == nil {
		t.Fatal("negative eps accepted")
	}
	if _, err := sys.NearestNeighborsOpts(ds, []float64{0.5, 0.5}, 0, QueryOptions{BufferPages: 8}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := sys.RangeQueryOpts(ds, []float64{0.5, 0.5}, 0.1, QueryOptions{BufferPages: -1}); err == nil {
		t.Fatal("negative buffer accepted")
	}
	if _, err := sys.RangeQueryOpts(ds, []float64{0.5, 0.5}, 0.1, QueryOptions{MaxResults: -1}); err == nil {
		t.Fatal("negative MaxResults accepted")
	}
	other := New()
	dc, err := other.AddVectors("c", randomVecs(64, 2, 43), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RangeQueryOpts(dc, []float64{0.5, 0.5}, 0.1, QueryOptions{BufferPages: 8}); err == nil {
		t.Fatal("cross-system query accepted")
	}
	seq, err := sys.AddString("s", []byte("ACGTACGTACGTACGTACGT"), StringOptions{Window: 8, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NearestNeighborsOpts(seq, []float64{0, 0, 0, 0}, 1, QueryOptions{BufferPages: 8}); err == nil {
		t.Fatal("sequence kNN accepted")
	}
}
