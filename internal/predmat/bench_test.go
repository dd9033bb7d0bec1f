package predmat

import (
	"math/rand"
	"testing"

	"pmjoin/internal/dataset"
	"pmjoin/internal/geom"
	"pmjoin/internal/index"
	"pmjoin/internal/rstar"
)

func benchTree(b *testing.B, n int) *rstar.Tree {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	items := make([]rstar.Item, n)
	for i := range items {
		items[i] = rstar.PointItem(i, geom.Vector{rng.Float64(), rng.Float64()})
	}
	tr, err := rstar.BulkLoadSTR(2, rstar.DefaultConfig(32), items)
	if err != nil {
		b.Fatal(err)
	}
	tr.Pack()
	return tr
}

func BenchmarkBuildMatrix(b *testing.B) {
	ta := benchTree(b, 20000)
	tb := benchTree(b, 20000)
	pred := NormPredictor{Norm: geom.L2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(ta.Root(), tb.Root(), ta.NumPages(), tb.NumPages(), 0.01, pred,
			BuildOptions{FilterDepth: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildMatrixNoFilter(b *testing.B) {
	ta := benchTree(b, 20000)
	tb := benchTree(b, 20000)
	pred := NormPredictor{Norm: geom.L2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(ta.Root(), tb.Root(), ta.NumPages(), tb.NumPages(), 0.01, pred,
			BuildOptions{FilterDepth: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildLandsatShape is the cold join's matrix build at the shape of
// the end-to-end benchmark's landsat workloads: the two halves of 68 866
// Landsat-like 60-d vectors, 8 per 4 KB page, ε = 0.0155736, filter depth 5.
func BenchmarkBuildLandsatShape(b *testing.B) {
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
	pred := NormPredictor{Norm: geom.L2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(roots[0], roots[1], pages[0], pages[1], 0.0155736, pred,
			BuildOptions{FilterDepth: DefaultFilterDepth}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatrixMark(b *testing.B) {
	m := NewMatrix(1000, 1000)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Mark(rng.Intn(1000), rng.Intn(1000))
	}
}
