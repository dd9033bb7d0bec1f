package rstar

import (
	"math/rand"
	"testing"
)

// benchBulkLoad times BulkLoadSTR over PointItems, then the pages and the
// hierarchy: the loader of the end-to-end benchmark's replica. AddVectors
// runs the same packer through LoadPoints, timed by the root package's
// BenchmarkAddVectorsLandsat and BenchmarkAddVectorsRoads.
func benchBulkLoad(b *testing.B, n, dim, leafCap int) {
	items := randItems(rand.New(rand.NewSource(1)), n, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := BulkLoadSTR(dim, DefaultConfig(leafCap), items)
		if err != nil {
			b.Fatal(err)
		}
		tr.Pack()
		tr.Root()
	}
}

func BenchmarkBulkLoadSTR10k(b *testing.B) { benchBulkLoad(b, 10000, 2, 32) }

// BenchmarkBulkLoadSTR60D is the landsat shape of the end-to-end benchmark:
// one side's 34 433 60-d points at 8 per 4 KB page, where after ~13 axes
// every STR slab is a single leaf.
func BenchmarkBulkLoadSTR60D(b *testing.B) { benchBulkLoad(b, 34433, 60, 8) }
