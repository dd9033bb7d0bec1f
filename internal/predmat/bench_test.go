package predmat

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pmjoin/internal/dataset"
	"pmjoin/internal/geom"
	"pmjoin/internal/index"
	"pmjoin/internal/mrsindex"
	"pmjoin/internal/pool"
	"pmjoin/internal/rstar"
	"pmjoin/internal/seqdist"
)

// buildInput is one matrix build's input: two index roots, their page
// counts, ε and the predictor.
type buildInput struct {
	r, s           *index.Node
	rPages, sPages int
	eps            float64
	pred           Predictor
}

// strInput bulk-loads two point sets perPage points a page, as the root
// package's AddVectors does.
func strInput(tb testing.TB, a, c []geom.Vector, perPage int, eps float64) *buildInput {
	tb.Helper()
	in := &buildInput{eps: eps, pred: NormPredictor{Norm: geom.L2}}
	for side, vecs := range [2][]geom.Vector{a, c} {
		items := make([]rstar.Item, len(vecs))
		for i, v := range vecs {
			items[i] = rstar.PointItem(i, v)
		}
		tr, err := rstar.BulkLoadSTR(len(vecs[0]), rstar.DefaultConfig(perPage), items)
		if err != nil {
			tb.Fatal(err)
		}
		tr.Pack()
		if side == 0 {
			in.r, in.rPages = tr.Root(), tr.NumPages()
		} else {
			in.s, in.sPages = tr.Root(), tr.NumPages()
		}
	}
	return in
}

// The three shapes of the end-to-end benchmark's matrix builds, each built
// once per test binary.
var (
	landsatOnce, roadOnce, dnaOnce sync.Once
	landsatIn, roadIn, dnaIn       *buildInput
)

// landsatInput is the landsat workloads' shape: the two halves of 68 866
// Landsat-like 60-d vectors, 8 per 4 KB page, ε = 0.0155736.
func landsatInput(tb testing.TB) *buildInput {
	landsatOnce.Do(func() {
		halves := dataset.SplitEqual(dataset.Landsat(68866, 60, 3), 2, 1)
		landsatIn = strInput(tb, halves[0], halves[1], 8, 0.0155736)
	})
	return landsatIn
}

// roadInput is spatial_cc's shape: 106 290 × 78 462 clustered 2-d road
// points, 42 per 1 KB page, ε = 0.0090860.
func roadInput(tb testing.TB) *buildInput {
	roadOnce.Do(func() {
		roadIn = strInput(tb, dataset.RoadIntersections(2*dataset.LBeachSize, 1),
			dataset.RoadIntersections(2*dataset.MCountySize, 2), 42, 0.0090860)
	})
	return roadIn
}

// dnaInput is dna_edit's shape: MRS-index frequency MBRs over a quarter of
// the HChr18 and MChr18 substitutes (window 500, stride 32, 4 KB pages),
// ε = 5 under mrsindex.Predictor.
func dnaInput(tb testing.TB) *buildInput {
	dnaOnce.Do(func() {
		cfg := mrsindex.Config{Window: 500, Stride: 32, PageBytes: 4096}
		var ix [2]*mrsindex.Index
		for side, seq := range [2][]byte{
			dataset.DNA(dataset.HChr18Size/4, 7), dataset.DNA(dataset.MChr18Size/4, 8),
		} {
			var err error
			if ix[side], err = mrsindex.Build(seq, seqdist.DNA, cfg); err != nil {
				tb.Fatal(err)
			}
		}
		dnaIn = &buildInput{r: ix[0].Root(), s: ix[1].Root(), rPages: ix[0].NumPages(), sPages: ix[1].NumPages(),
			eps: 5, pred: mrsindex.Predictor{}}
	})
	return dnaIn
}

var benchMatrix *Matrix

// benchBuild times Build over in and reports the last build's pair tests
// and sweep events per operation.
func benchBuild(b *testing.B, in *buildInput, depth int, runner *pool.Group) {
	var st BuildStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = BuildStats{}
		m, err := Build(in.r, in.s, in.rPages, in.sPages, in.eps, in.pred,
			BuildOptions{FilterDepth: depth, Stats: &st, Runner: runner})
		if err != nil {
			b.Fatal(err)
		}
		benchMatrix = m
	}
	b.ReportMetric(float64(st.PairTests), "pairtests/op")
	b.ReportMetric(float64(st.SweepEvents), "events/op")
}

// benchShape times the default-depth build of one shape serially and with
// two workers, which is how the root package builds it on a 2-core host.
func benchShape(b *testing.B, in *buildInput) {
	b.Run("serial", func(b *testing.B) { benchBuild(b, in, DefaultFilterDepth, nil) })
	b.Run("workers=2", func(b *testing.B) { benchBuild(b, in, DefaultFilterDepth, workerGroup(b, 2)) })
}

// BenchmarkBuildLandsatShape is the cold landsat join's matrix build.
func BenchmarkBuildLandsatShape(b *testing.B) { benchShape(b, landsatInput(b)) }

// BenchmarkBuild2D is spatial_cc's matrix build.
func BenchmarkBuild2D(b *testing.B) { benchShape(b, roadInput(b)) }

// BenchmarkBuildDNAShape is dna_edit's matrix build.
func BenchmarkBuildDNAShape(b *testing.B) { benchShape(b, dnaInput(b)) }

// BenchmarkBuildDepth is the depth × shape table: the serial build of each
// shape with FilterDepth 0, 1 and 5, timed and counted in pair tests.
func BenchmarkBuildDepth(b *testing.B) {
	for _, shape := range []struct {
		name string
		in   func(testing.TB) *buildInput
	}{{"landsat", landsatInput}, {"road", roadInput}, {"dna", dnaInput}} {
		for _, depth := range []int{0, 1, DefaultFilterDepth} {
			b.Run(fmt.Sprintf("%s/k=%d", shape.name, depth), func(b *testing.B) {
				benchBuild(b, shape.in(b), depth, nil)
			})
		}
	}
}

// denseInput is a shape whose every cell is marked: 1 024 × 1 024
// landsat-shaped pages, 8 60-d vectors a page, at ε = 10⁹.
func denseInput(tb testing.TB) *buildInput {
	halves := dataset.SplitEqual(dataset.Landsat(2*8192, 60, 3), 2, 1)
	in := strInput(tb, halves[0], halves[1], 8, 1e9)
	if in.rPages != 1024 || in.sPages != 1024 {
		tb.Fatalf("dense shape %dx%d pages, want 1024x1024", in.rPages, in.sPages)
	}
	return in
}

// BenchmarkBuildDense is the matrix build of a request that marks every
// cell, on two workers: its bytes an op over its 2²⁰ cells are what a
// dense request costs a marked cell.
func BenchmarkBuildDense(b *testing.B) {
	benchBuild(b, denseInput(b), DefaultFilterDepth, workerGroup(b, 2))
}

// BenchmarkFromEntries times the matrix constructor over 166 911 random
// marks of a 1 000 × 1 000 matrix, the landsat build's mark count, in eight
// batches.
func BenchmarkFromEntries(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	marks := make([][]Entry, 8)
	for i := 0; i < 166911; i++ {
		marks[i%8] = append(marks[i%8], Entry{R: rng.Intn(1000), C: rng.Intn(1000)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMatrix = FromEntries(1000, 1000, marks...)
	}
}
