package rstar

import (
	"math/rand"
	"testing"

	"pmjoin/internal/geom"
)

func benchItems(n, dim int) []Item {
	return randItemsBench(rand.New(rand.NewSource(1)), n, dim)
}

func randItemsBench(rng *rand.Rand, n, dim int) []Item {
	items := make([]Item, n)
	for i := range items {
		v := make(geom.Vector, dim)
		for d := range v {
			v[d] = rng.Float64()
		}
		items[i] = PointItem(i, v)
	}
	return items
}

func BenchmarkInsert2D(b *testing.B) {
	items := benchItems(b.N, 2)
	tr, _ := New(2, DefaultConfig(32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(items[i])
	}
}

func BenchmarkBulkLoadSTR10k(b *testing.B) {
	items := benchItems(10000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BulkLoadSTR(2, DefaultConfig(32), items); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkLoadSTR60D is the landsat shape of the end-to-end benchmark:
// one side's 34 433 60-d points at 8 per 4 KB page, where after ~13 axes
// every STR slab is a single leaf.
func BenchmarkBulkLoadSTR60D(b *testing.B) {
	items := benchItems(34433, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BulkLoadSTR(60, DefaultConfig(8), items); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeSearch(b *testing.B) {
	items := benchItems(20000, 2)
	tr, _ := BulkLoadSTR(2, DefaultConfig(32), items)
	q := geom.MBR{Min: geom.Vector{0.4, 0.4}, Max: geom.Vector{0.42, 0.42}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RangeSearch(q)
	}
}

func BenchmarkNearestNeighbors10(b *testing.B) {
	items := benchItems(20000, 2)
	tr, _ := BulkLoadSTR(2, DefaultConfig(32), items)
	q := geom.Vector{0.5, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.NearestNeighbors(q, 10, geom.L2)
	}
}
