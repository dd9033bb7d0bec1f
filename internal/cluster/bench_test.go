package cluster

import (
	"math/rand"
	"testing"

	"pmjoin/internal/dataset"
	"pmjoin/internal/geom"
	"pmjoin/internal/index"
	"pmjoin/internal/predmat"
	"pmjoin/internal/rstar"
)

func benchMatrix(b *testing.B, n, band int) *predmat.Matrix {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	m := predmat.NewMatrix(n, n)
	for r := 0; r < n; r++ {
		for dc := -band; dc <= band; dc++ {
			c := r + dc
			if c >= 0 && c < n && rng.Float64() < 0.5 {
				m.Mark(r, c)
			}
		}
	}
	return m
}

func BenchmarkSquareCluster(b *testing.B) {
	m := benchMatrix(b, 1000, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SquareOpts(m, 50, SquareOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCostCluster(b *testing.B) {
	m := benchMatrix(b, 400, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cost(m, 50, CostOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// landsatShape is the prediction matrix of the end-to-end benchmark's
// landsat workloads: the two halves of 68 866 Landsat-like 60-d vectors,
// 8 per 4 KB page (4 305 × 4 305 pages), ε = 0.0155736, filter depth 5 —
// ~166 900 marks, ~39 per row.
func landsatShape(b *testing.B) *predmat.Matrix {
	b.Helper()
	const dim = 60
	var roots [2]*index.Node
	var pages [2]int
	for side, vecs := range dataset.SplitEqual(dataset.Landsat(68866, dim, 3), 2, 1) {
		items := make([]rstar.Item, len(vecs))
		for i, v := range vecs {
			items[i] = rstar.PointItem(i, v)
		}
		tr, err := rstar.BulkLoadSTR(dim, rstar.DefaultConfig(8), items)
		if err != nil {
			b.Fatal(err)
		}
		tr.Pack()
		roots[side], pages[side] = tr.Root(), tr.NumPages()
	}
	m, err := predmat.Build(roots[0], roots[1], pages[0], pages[1], 0.0155736,
		predmat.NormPredictor{Norm: geom.L2}, predmat.BuildOptions{FilterDepth: predmat.DefaultFilterDepth})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// spatialShape is a 2 556 × 1 886 matrix with ~5 marks per row near a
// stretched diagonal (~13 500 marks): the spatial_cc workload's shape.
func spatialShape(b *testing.B) *predmat.Matrix {
	b.Helper()
	const rows, cols, perRow, band = 2556, 1886, 5, 12
	rng := rand.New(rand.NewSource(1))
	m := predmat.NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		mid := r * cols / rows
		for k := 0; k < perRow; k++ {
			if c := mid + rng.Intn(2*band+1) - band; c >= 0 && c < cols {
				m.Mark(r, c)
			}
		}
	}
	return m.Finalize()
}

func BenchmarkSquareLandsatShape(b *testing.B) {
	m := landsatShape(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SquareOpts(m, 100, SquareOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCostSpatialShape(b *testing.B) {
	m := spatialShape(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cost(m, 320, CostOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
