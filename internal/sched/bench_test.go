package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pmjoin/internal/disk"
)

// benchSets builds n overlapping page sets of ~setSize pages drawn from a
// universe sized to give neighbouring clusters substantial sharing, the shape
// the clustered executor produces.
func benchSets(n, setSize int, seed int64) []refSet {
	rng := rand.New(rand.NewSource(seed))
	sets := make([]refSet, n)
	universe := n * setSize / 4
	if universe < setSize {
		universe = setSize
	}
	for i := range sets {
		s := make(refSet, setSize)
		base := (i * setSize / 3) % universe
		for k := 0; k < setSize; k++ {
			s[disk.PageAddr{Page: (base + rng.Intn(setSize*2)) % universe}] = struct{}{}
		}
		sets[i] = s
	}
	return sets
}

func TestSharingGraphMatchesMapReference(t *testing.T) {
	for _, tc := range []struct {
		n, setSize int
		seed       int64
	}{
		{0, 0, 1}, {1, 5, 2}, {8, 6, 3}, {40, 12, 4}, {60, 3, 5},
	} {
		sets := benchSets(tc.n, tc.setSize, tc.seed)
		want := sharingGraphMapRef(sets)
		got := SharingGraph(toPageSets(sets))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d setSize=%d: inverted-index graph differs from map reference\n got %v\nwant %v",
				tc.n, tc.setSize, got, want)
		}
	}
}

func benchmarkGraph(b *testing.B, f func([]refSet) []Edge) {
	for _, size := range []struct{ n, pages int }{
		{64, 32}, {256, 32}, {256, 128},
	} {
		sets := benchSets(size.n, size.pages, 42)
		b.Run(fmt.Sprintf("n=%d_pages=%d", size.n, size.pages), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f(sets)
			}
		})
	}
}

// BenchmarkSharingGraph is the "after" side (inverted index over sorted page
// sets, conversion included); BenchmarkSharingGraphMapProbe is the "before"
// side (per-element map probes).
func BenchmarkSharingGraph(b *testing.B) {
	benchmarkGraph(b, func(s []refSet) []Edge { return SharingGraph(toPageSets(s)) })
}
func BenchmarkSharingGraphMapProbe(b *testing.B) { benchmarkGraph(b, sharingGraphMapRef) }

// BenchmarkSharingGraph376 is the landsat_* schedule's size: 376 clusters of
// 100 pages.
func BenchmarkSharingGraph376(b *testing.B) {
	sets := toPageSets(benchSets(376, 100, 42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SharingGraph(sets)
	}
}
