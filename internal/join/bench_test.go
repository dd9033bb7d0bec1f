package join

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pmjoin/internal/cluster"
	"pmjoin/internal/dataset"
	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/kernel"
	"pmjoin/internal/pool"
	"pmjoin/internal/predmat"
	"pmjoin/internal/sched"
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

// BenchmarkVectorJoinPages joins 64 page pairs at the landsat_sim page shape
// — 8 rows of 60-d a 4 KB page — under L2 at the workload's ε: the path NLJ,
// pm-NLJ and BFRJ take for every page pair they compare. The rows come from
// dataset.Landsat sorted by their first coordinate, so a pair's two pages
// share a spectral cluster, and half of b's rows are near copies of a's, so
// the kernel both abandons rows early and emits hits. The self case runs the
// same pages through the self join's id skip. Each case's pairs are checked
// against a per-pair Threshold.Within loop before timing.
func BenchmarkVectorJoinPages(b *testing.B) {
	const dim, perPage, pairs, eps = 60, 4096 / (8*60 + 8), 64, 0.0155736
	vecs := dataset.Landsat(2*pairs*perPage, dim, 3)
	slices.SortFunc(vecs, func(x, y geom.Vector) int { return cmp.Compare(x[0], y[0]) })
	rng := rand.New(rand.NewSource(9))
	pa, pb := make([]*disk.Page, pairs), make([]*disk.Page, pairs)
	for p := range pairs {
		lo := 2 * p * perPage
		ids := func(first int) []int {
			out := make([]int, perPage)
			for k := range out {
				out[k] = first + k
			}
			return out
		}
		rowsB := slices.Clone(vecs[lo+perPage : lo+2*perPage])
		for k := 0; k < perPage; k += 2 {
			near := slices.Clone(vecs[lo+k])
			for d := range near {
				near[d] += 0.0005 * rng.NormFloat64()
			}
			rowsB[k] = near
		}
		pa[p] = vecPage(ids(lo), vecs[lo:lo+perPage]...)
		pb[p] = vecPage(ids(lo+perPage), rowsB...)
	}
	th := kernel.NewThresholdSq(eps)
	for _, self := range []bool{false, true} {
		name := "nonself"
		if self {
			name = "self"
		}
		b.Run(name, func(b *testing.B) {
			j := VectorJoiner{Norm: geom.L2, Eps: eps, Self: self}
			var got, want [][2]int
			for p := range pairs {
				a, s := pa[p], pb[p]
				for i := range a.IDs {
					for k := range s.IDs {
						if (!self || !SelfSkip(a, i, s, k, 0)) && th.Within(a.Flat.Row(i), s.Flat.Row(k)) {
							want = append(want, [2]int{a.IDs[i], s.IDs[k]})
						}
					}
				}
				j.JoinPages(a, s, func(x, y int) { got = append(got, [2]int{x, y}) })
			}
			if len(want) == 0 || !slices.Equal(got, want) {
				b.Fatalf("JoinPages emits %d pairs, the per-pair loop %d, or they differ", len(got), len(want))
			}
			hits := 0
			emit := func(int, int) { hits++ }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p := range pairs {
					j.JoinPages(pa[p], pb[p], emit)
				}
			}
			b.ReportMetric(float64(len(want)), "hits")
		})
	}
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
	pr, ps := make([]*disk.Page, pages), make([]*disk.Page, pages)
	for p := range pr {
		pr[p] = randVectorPage(rng, perPage*p, perPage, 2)
		ps[p] = randVectorPage(rng, perPage*p, perPage, 2)
	}
	d := disk.New(disk.DefaultModel())
	dr, ds := oracleDataset(b, d, "r", pr), oracleDataset(b, d, "s", ps)
	m := predmat.Full(pages, pages)
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

// BenchmarkClusteredWindow runs the clustered executor on two workers over
// about forty landsat-shaped clusters: 60-d Landsat rows, pages holding eight
// rows or, with the workload's frequency (1 665 of 5 761), one, at the
// landsat_sim ε, with about one S row in 50 a near copy of a row of the R page
// with its index, so the join has a few results. The matrix is a band, so SC
// cuts it into clusters of up to 100 pages that share pages with their
// neighbours, and the coordinator's pins of one cluster overlap the workers'
// kernel calls over the one before. Report and pairs are checked against an
// inline run before timing.
func BenchmarkClusteredWindow(b *testing.B) {
	const dim, pages, band, buffer, eps = 60, 880, 40, 100, 0.0155736
	rng := rand.New(rand.NewSource(4))
	vecs := dataset.Landsat(2*8*pages, dim, 4)
	amp := eps / 32 / math.Sqrt(dim)
	side := func(first int, src [][]geom.Vector) ([]*disk.Page, [][]geom.Vector) {
		var out []*disk.Page
		var rows [][]geom.Vector
		for p := 0; p < pages; p++ {
			n := 8
			if rng.Intn(5761) < 1665 {
				n = 1
			}
			page := vecs[:n:n]
			vecs = vecs[n:]
			for k := range page {
				if src != nil && len(src[p]) > 0 && rng.Intn(50) == 0 {
					v := slices.Clone(src[p][rng.Intn(len(src[p]))])
					for d := range v {
						v[d] += (2*rng.Float64() - 1) * amp
					}
					page[k] = v
				}
			}
			ids := make([]int, n)
			for k := range ids {
				ids[k] = first + 8*p + k
			}
			out = append(out, vecPage(ids, page...))
			rows = append(rows, page)
		}
		return out, rows
	}
	pr, rowsR := side(0, nil)
	ps, _ := side(8*pages, rowsR)
	d := disk.New(disk.DefaultModel())
	dr, ds := oracleDataset(b, d, "r", pr), oracleDataset(b, d, "s", ps)
	var marks []predmat.Entry
	for r := 0; r < pages; r++ {
		for c := max(r-band, 0); c < min(r+band+1, pages); c++ {
			if c == r || rng.Intn(2) == 0 {
				marks = append(marks, predmat.Entry{R: r, C: c})
			}
		}
	}
	m := predmat.FromEntries(pages, pages, marks)
	clusters, err := cluster.SquareOpts(m, buffer, cluster.SquareOptions{})
	if err != nil {
		b.Fatal(err)
	}
	sets := pageSetsOf(dr, ds, clusters)
	order := sched.GreedyOrder(len(sets), sched.SharingGraph(sets))
	j := VectorJoiner{Norm: geom.L2, Eps: eps}
	run := func(workers *pool.Group) (*Report, [][2]int) {
		e := &Engine{Disk: d, BufferSize: buffer, Pairs: NewPairs(1 << 30), Workers: workers}
		rep, err := e.Clustered(dr, ds, m, clusters, sets, order, j)
		if err != nil {
			b.Fatal(err)
		}
		pairs, _ := MergePairs([]*Pairs{e.Pairs}, 1<<30)
		return rep, pairs
	}

	workers := workerGroup(b, 2)
	wantRep, wantPairs := run(nil)
	if rep, pairs := run(workers); !reflect.DeepEqual(rep, wantRep) || !reflect.DeepEqual(pairs, wantPairs) || len(pairs) == 0 {
		b.Fatalf("two workers: %d pairs, report %+v; inline: %d pairs, report %+v", len(pairs), rep, len(wantPairs), wantRep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(workers)
	}
	b.ReportMetric(float64(len(clusters)), "clusters")
	b.ReportMetric(float64(len(wantPairs)), "pairs")
}
