package join

import (
	"math/rand"
	"slices"
	"testing"

	"pmjoin/internal/buffer"
	"pmjoin/internal/sched"
)

// landsatSets builds n page sets of setPages pages over two files,
// neighbouring sets overlapping by about a third: the landsat_* schedule's
// shape (376 clusters of up to 100 pages at B = 100).
func landsatSets(n, setPages int, seed int64) []sched.PageSet {
	rng := rand.New(rand.NewSource(seed))
	universe := n * setPages / 4
	sets := make([]sched.PageSet, n)
	for i := range sets {
		base := (i * setPages / 3) % universe
		var rows, cols []int
		seen := map[int]bool{}
		for len(rows)+len(cols) < setPages {
			p := (base + rng.Intn(setPages*2)) % universe
			if seen[p] {
				continue
			}
			seen[p] = true
			if p%2 == 0 {
				rows = append(rows, p)
			} else {
				cols = append(cols, p)
			}
		}
		slices.Sort(rows)
		slices.Sort(cols)
		sets[i] = sched.NewPageSet(0, rows, 1, cols)
	}
	return sets
}

// BenchmarkPredictReads376 replays the landsat_* schedule's shape: what
// Explain adds to a plan, and shard.Cut once per shard plus once uncut.
func BenchmarkPredictReads376(b *testing.B) {
	sets := landsatSets(376, 98, 42)
	order := sched.GreedyOrder(len(sets), sched.SharingGraph(sets))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PredictReads(sets, order, 100, buffer.LRU); err != nil {
			b.Fatal(err)
		}
	}
}
