package pmjoin_test

import (
	"testing"

	"pmjoin"
	"pmjoin/internal/dataset"
)

// benchAddVectors times the set-up of a two-sided vector join: AddVectors on
// each side into a fresh System, with the given page size.
func benchAddVectors(b *testing.B, a, c [][]float64, pageBytes int) {
	opts := pmjoin.VectorOptions{PageBytes: pageBytes}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := pmjoin.New()
		if _, err := sys.AddVectors("R", a, opts); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.AddVectors("S", c, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddVectorsLandsat is landsat_sim's set-up: two 34 433 × 60-d
// sides at 4 KB pages, 8 vectors a page.
func BenchmarkAddVectorsLandsat(b *testing.B) {
	parts := dataset.SplitEqual(dataset.Landsat(68866, 60, 3), 2, 64)
	benchAddVectors(b, dataset.ToFloats(parts[0]), dataset.ToFloats(parts[1]), 4096)
}

// BenchmarkAddVectorsRoads is spatial_cc's set-up: 106 290 and 78 462 2-d
// road intersections at 1 KB pages, 42 points a page.
func BenchmarkAddVectorsRoads(b *testing.B) {
	half := func(n int, shape, seed int64) [][]float64 {
		return dataset.ToFloats(dataset.SplitEqual(dataset.RoadIntersections(2*n, shape), 2, seed)[0])
	}
	benchAddVectors(b, half(2*dataset.LBeachSize, 1, 64), half(2*dataset.MCountySize, 2, 65), 1024)
}
