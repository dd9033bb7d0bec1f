package join

import (
	"math/rand"
	"reflect"
	"testing"

	"pmjoin/internal/cluster"
	"pmjoin/internal/dataset"
	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/predmat"
	"pmjoin/internal/seqdist"
)

// BenchmarkStringJoinPages joins two pages at the dna_edit page shape —
// 113 windows of 500 at stride 32, a 4 KB page, each — under edit distance
// 5. The pages come from one isochore of the synthetic chromosome with a
// planted homology, so about 0.3 % of the pairs pass the frequency filter,
// as in the dna_edit workload, and a few of those are results.
func BenchmarkStringJoinPages(b *testing.B) {
	const w, stride, n, k = 500, 32, 113, 5
	span := (n-1)*stride + w
	seq := dataset.DNA(12*span, 2)
	sa := seq[:span]
	sb := append([]byte(nil), seq[11*span:12*span]...)
	dataset.PlantHomologiesAligned(sb, sa, 1, w+2*stride, 0.004, stride, 2)
	pa := stringPage(sa, seqdist.DNA, 0, n, w, stride)
	pb := stringPage(sb, seqdist.DNA, 0, n, w, stride)

	pass, results := 0, 0
	for i := range pa.IDs {
		for j := range pb.IDs {
			if seqdist.FreqDistance(pa.Freqs[i], pb.Freqs[j]) <= k {
				pass++
			}
		}
	}
	j := StringJoiner{MaxEdit: k}
	j.JoinPages(pa, pb, func(int, int) { results++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.JoinPages(pa, pb, func(int, int) {})
	}
	b.ReportMetric(float64(pass)/float64(n*n), "filter_pass")
	b.ReportMetric(float64(results), "results")
}

var benchPairs [][2]int

// BenchmarkCollectPairs2D runs one clustered join that collects every pair,
// from the pinned pages to the final slice: 16 × 16 pages of 1 024 bytes
// (42 uniform 2-d points each), every cell marked and one cluster, at an ε
// where about half of the 451 584 candidate pairs match — the result-heavy
// shape of the spatial_cc workload, where pair output outweighs the
// comparisons. Each of the four runs writes many chunks, so the
// benchmark times the worker-side translation, the merge's chunk links and
// the one final copy. The pair stream is checked against the reference
// loops before timing.
func BenchmarkCollectPairs2D(b *testing.B) {
	const pages, perPage = 16, 1024 / (8*2 + 8)
	rng := rand.New(rand.NewSource(5))
	pr, ps := make([]any, pages), make([]any, pages)
	for p := range pr {
		pr[p] = randVectorPage(rng, perPage*p, perPage, 2)
		ps[p] = randVectorPage(rng, perPage*p, perPage, 2)
	}
	d := disk.New(disk.DefaultModel())
	dr, ds := oracleDataset(b, d, "r", pr), oracleDataset(b, d, "s", ps)
	m := predmat.NewMatrix(pages, pages)
	for r := 0; r < pages; r++ {
		for c := 0; c < pages; c++ {
			m.Mark(r, c)
		}
	}
	clusters, err := cluster.SquareOpts(m, 2*pages, cluster.SquareOptions{})
	if err != nil || len(clusters) != 1 {
		b.Fatalf("want one cluster, got %d (%v)", len(clusters), err)
	}
	sets := pageSetsOf(dr, ds, clusters)
	j := VectorJoiner{Norm: geom.L2, Eps: 0.5}
	run := func() [][2]int {
		e := &Engine{Disk: d, BufferSize: 2 * pages, Pairs: NewPairs(1 << 30)}
		if _, err := e.Clustered(dr, ds, m, clusters, sets, []int{0}, j); err != nil {
			b.Fatal(err)
		}
		pairs, _ := MergePairs([]*Pairs{e.Pairs}, 1<<30)
		return pairs
	}

	var want joinTrace
	for _, en := range clusters[0].Entries {
		want.add(func(emit func(int, int)) (int64, float64) { return refJoinPages(j, pr[en.R], ps[en.C], emit) })
	}
	if got := run(); !reflect.DeepEqual(got, want.pairs) || len(got) < 4*ChunkPairs {
		b.Fatalf("collected %d pairs, reference %d (want equal streams of at least %d)", len(got), len(want.pairs), 4*ChunkPairs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPairs = run()
	}
	b.ReportMetric(float64(len(want.pairs)), "pairs")
}
