package rstar

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pmjoin/internal/dataset"
	"pmjoin/internal/pool"
)

// samePointTree reports the first difference between two point trees: page
// count, a page's IDs or row bits, or the hierarchy's shape, page numbers
// and MBR bits.
func samePointTree(got, want *PointTree) error {
	if got.NumPages() != want.NumPages() {
		return fmt.Errorf("%d pages, want %d", got.NumPages(), want.NumPages())
	}
	for p := range want.NumPages() {
		gotIDs, gotRows := got.Page(p)
		wantIDs, wantRows := want.Page(p)
		if !slices.Equal(gotIDs, wantIDs) {
			return fmt.Errorf("page %d holds IDs %v, want %v", p, gotIDs, wantIDs)
		}
		if !sameBits(gotRows, wantRows) {
			return fmt.Errorf("page %d rows differ", p)
		}
	}
	return sameHierarchy(got.Root(), want.Root(), "root")
}

// TestPointLoadParallelMatchesInline holds the loader's tasks to its inline
// run: on a 2- and a 4-worker pool, LoadPoints must pack the same pages, IDs
// and row bits under the same hierarchy as with no runner, and BulkLoadSTR
// the same tree, at the landsat and road shapes and on the tree-identity
// test's hostile shapes. The large inputs split every step into tasks, and
// those whose first pass cuts many slabs fork its selection.
func TestPointLoadParallelMatchesInline(t *testing.T) {
	type input struct {
		name     string
		vecs     [][]float64
		capacity int
	}
	inputs := []input{
		{"landsat", dataset.ToFloats(dataset.Landsat(12000, 60, 1)), 4096 / (8*60 + 8)},
		{"roads", dataset.ToFloats(dataset.RoadIntersections(20000, 1)), 1024 / (8*2 + 8)},
	}
	rng := rand.New(rand.NewSource(31))
	for _, dim := range []int{1, 2, 3, 16, 60} {
		for _, n := range []int{1, 9, 5000} {
			for _, shape := range []string{"uniform", "duplicates", "quantised", "collinear", "clustered"} {
				items := strOracleItems(rng, shape, n, dim)
				vecs := make([][]float64, n)
				for i, it := range items {
					vecs[i] = it.MBR.Min
				}
				inputs = append(inputs, input{fmt.Sprintf("dim=%d/n=%d/%s", dim, n, shape), vecs, 8})
			}
		}
	}
	for _, in := range inputs {
		dim := len(in.vecs[0])
		cfg := DefaultConfig(in.capacity)
		want, err := LoadPoints(dim, cfg, in.vecs)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		items := make([]Item, len(in.vecs))
		for i, v := range in.vecs {
			items[i] = PointItem(i, v)
		}
		wantItems, err := BulkLoadSTR(dim, cfg, items)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		for _, workers := range []int{2, 4} {
			cfg.Runner = workerGroup(t, workers)
			got, err := LoadPoints(dim, cfg, in.vecs)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", in.name, workers, err)
			}
			if err := samePointTree(got, want); err != nil {
				t.Fatalf("%s/workers=%d: LoadPoints: %v", in.name, workers, err)
			}
			gotItems, err := BulkLoadSTR(dim, cfg, items)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", in.name, workers, err)
			}
			if g, w := treeFingerprint(gotItems), treeFingerprint(wantItems); g != w {
				t.Fatalf("%s/workers=%d: BulkLoadSTR fingerprint %#x, want %#x", in.name, workers, g, w)
			}
		}
	}
}

// TestSTRSelectOnMatchesStrSelect holds the forking selection to strSelect:
// inline and on a 2-worker pool, strSelectOn must leave the keys in exactly
// the order strSelect leaves them, on the adversarial orders of
// TestSTRSelectAdversarial, at cut counts that put one cut and several on
// the sides it forks, and with the sort fallback forced.
func TestSTRSelectOnMatchesStrSelect(t *testing.T) {
	const n = 30000
	workers := workerGroup(t, 2)
	rng := rand.New(rand.NewSource(37))
	for _, shape := range []string{"random", "sorted", "reverse", "organ-pipe", "equal-axis-0"} {
		cent := make([]float64, 2*n)
		for i := range n {
			switch shape {
			case "random":
				cent[i] = rng.Float64()
			case "sorted":
				cent[i] = float64(i)
			case "reverse":
				cent[i] = float64(n - i)
			case "organ-pipe":
				cent[i] = float64(min(i, n-1-i))
			case "equal-axis-0":
				cent[i] = 1
			}
			cent[n+i] = float64(i % 3)
		}
		cmp := strCmp(cent, n, 0, 0)
		keys := make([]strKey, n)
		for i := range keys {
			keys[i] = strKey{c: cent[i], i: int32(i)}
		}
		for _, slabs := range []int{2, 5, 13, 400} {
			size := (n + slabs - 1) / slabs
			var cuts []int
			for c := size; c < n; c += size {
				cuts = append(cuts, c)
			}
			for _, budget := range []int{strSelectBudget(n), 0, 3} {
				want := slices.Clone(keys)
				strSelect(want, 0, cuts, cmp, budget)
				for _, run := range []*pool.Group{nil, workers} {
					got := slices.Clone(keys)
					strSelectOn(run, got, 0, cuts, cmp, budget)
					run.Wait()
					for k := range want {
						if got[k].i != want[k].i {
							t.Fatalf("%s/slabs=%d/budget=%d/pool=%v: rank %d holds key %d, want %d",
								shape, slabs, budget, run != nil, k, got[k].i, want[k].i)
						}
					}
				}
			}
		}
	}
}

// workerGroup returns a group of up to n tasks in flight on a pool of n
// workers, closed when tb ends.
func workerGroup(tb testing.TB, n int) *pool.Group {
	p := pool.New(n)
	tb.Cleanup(p.Close)
	return p.Group(n)
}
