package rstar

import (
	"math/rand"
	"testing"

	"pmjoin/internal/dataset"
	"pmjoin/internal/pool"
)

// benchBulkLoad times BulkLoadSTR over PointItems, then the pages and the
// hierarchy: the loader of the end-to-end benchmark's replica. AddVectors
// runs the same packer through LoadPoints, timed here by
// BenchmarkLoadPoints60D and with its page writes by the root package's
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

// benchLoadPoints times LoadPoints over vecs at leafCap a page, with cfg's
// runner set to run.
func benchLoadPoints(b *testing.B, vecs [][]float64, leafCap int, run *pool.Group) {
	cfg := DefaultConfig(leafCap)
	cfg.Runner = run
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadPoints(len(vecs[0]), cfg, vecs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadPoints60D is one side of landsat_sim's set-up, AddVectors'
// point loader over 34 433 Landsat-like 60-d vectors at 8 a page, inline and
// on two workers, which is how AddVectors loads on a 2-core host.
func BenchmarkLoadPoints60D(b *testing.B) {
	vecs := dataset.ToFloats(dataset.SplitEqual(dataset.Landsat(68866, 60, 3), 2, 64)[0])
	b.Run("serial", func(b *testing.B) { benchLoadPoints(b, vecs, 8, nil) })
	b.Run("workers=2", func(b *testing.B) {
		benchLoadPoints(b, vecs, 8, workerGroup(b, 2))
	})
}
