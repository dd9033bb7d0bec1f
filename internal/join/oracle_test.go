package join

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pmjoin/internal/cluster"
	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/index"
	"pmjoin/internal/predmat"
	"pmjoin/internal/sched"
	"pmjoin/internal/seqdist"
)

// The reference comparison loops: the plain per-pair distance tests that
// VectorJoiner and SeriesJoiner ran before every comparison moved to
// internal/kernel. They are the oracle the kernel path must reproduce bit
// for bit — same emit order, same comparison count, same modeled CPU
// seconds — and live only here.

func refVectorJoinPages(j VectorJoiner, pa, pb *disk.Page, emit func(int, int)) (int64, float64) {
	var comps int64
	dim := 0
	if len(pa.IDs) > 0 {
		dim = len(pa.Flat.Row(0))
	}
	epsSq := j.Eps * j.Eps
	for i, va := range rows(pa) {
		for k, vb := range rows(pb) {
			if j.Self && pa.IDs[i] >= pb.IDs[k] {
				continue
			}
			comps++
			if j.Norm == geom.L2 {
				// Squared L2 against fl(eps²), the historical L2 loop.
				if geom.DistSq(va, vb) <= epsSq {
					emit(pa.IDs[i], pb.IDs[k])
				}
			} else if j.Norm.Dist(va, vb) <= j.Eps {
				emit(pa.IDs[i], pb.IDs[k])
			}
		}
	}
	perPair := compareBaseCost + comparePerDimCost*float64(dim)
	return comps, float64(comps) * perPair
}

func refSeriesJoinPages(j SeriesJoiner, pa, pb *disk.Page, emit func(int, int)) (int64, float64) {
	var comps int64
	w := 0
	if len(pa.IDs) > 0 {
		w = len(pa.Flat.Row(0))
	}
	epsSq := j.Eps * j.Eps
	for i, wa := range rows(pa) {
		for k, wb := range rows(pb) {
			if j.Self {
				if pa.IDs[i] >= pb.IDs[k] {
					continue
				}
				if d := pa.Starts[i] - pb.Starts[k]; max(d, -d) < j.ExcludeOverlap {
					continue
				}
			}
			comps++
			if geom.DistSq(wa, wb) <= epsSq {
				emit(pa.IDs[i], pb.IDs[k])
			}
		}
	}
	perPair := compareBaseCost + comparePerDimCost*float64(w)
	return comps, float64(comps) * perPair
}

// refStringJoinPages is the string join by definition: a pair matches when
// its full edit distance is at most MaxEdit, whatever the frequency filter
// says. The filter only decides which pairs the modeled CPU charges a
// banded verification for, so it enters the reference through the public
// FreqDistance and the seed's cost formula alone.
func refStringJoinPages(j StringJoiner, pa, pb *disk.Page, emit func(int, int)) (int64, float64) {
	var comps, verifs int64
	w, alpha := 0, 0
	if len(pa.Windows) > 0 {
		w, alpha = len(pa.Windows[0]), len(pa.Freqs[0])
	}
	for i, wa := range pa.Windows {
		for k, wb := range pb.Windows {
			if j.Self {
				if pa.IDs[i] >= pb.IDs[k] {
					continue
				}
				if d := pa.Starts[i] - pb.Starts[k]; max(d, -d) < j.ExcludeOverlap {
					continue
				}
			}
			comps++
			if seqdist.FreqDistance(pa.Freqs[i], pb.Freqs[k]) <= j.MaxEdit {
				verifs++
			}
			if seqdist.EditDistance(wa, wb) <= j.MaxEdit {
				emit(pa.IDs[i], pb.IDs[k])
			}
		}
	}
	perPair := compareBaseCost + comparePerDimCost*float64(alpha)
	bandCells := float64(2*j.MaxEdit+1) * float64(w)
	return comps, float64(comps)*perPair + float64(verifs)*bandCells*editPerCellCost
}

// refJoinPages dispatches to the reference loop for j.
func refJoinPages(j ObjectJoiner, a, b *disk.Page, emit func(int, int)) (int64, float64) {
	switch j := j.(type) {
	case VectorJoiner:
		return refVectorJoinPages(j, a, b, emit)
	case SeriesJoiner:
		return refSeriesJoinPages(j, a, b, emit)
	case StringJoiner:
		return refStringJoinPages(j, a, b, emit)
	default:
		panic(fmt.Sprintf("no reference loop for %T", j))
	}
}

// pairTestJoinPages is a one-cell JoinCells built from j's PairTest one pair at a time,
// past the self-join skip: the loop EGO runs over its candidate pairs.
func pairTestJoinPages(j ObjectJoiner, self bool, exclude int, a, b *disk.Page, emit func(int, int)) (int64, float64) {
	test := j.PairTest()
	var comps int64
	var cpu float64
	for i := range a.IDs {
		for k := range b.IDs {
			if self && SelfSkip(a, i, b, k, exclude) {
				continue
			}
			comps++
			ok, c := test(a, i, b, k)
			cpu += c
			if ok {
				emit(a.IDs[i], b.IDs[k])
			}
		}
	}
	return comps, cpu
}

// joinTrace is everything the determinism contract fixes about a sequence
// of page-pair comparisons.
type joinTrace struct {
	pairs [][2]int
	comps int64
	cpu   float64
}

func (tr *joinTrace) add(join func(emit func(int, int)) (int64, float64)) {
	comps, cpu := join(func(i, k int) { tr.pairs = append(tr.pairs, [2]int{i, k}) })
	tr.comps += comps
	tr.cpu += cpu
}

func (tr joinTrace) check(t *testing.T, want joinTrace) {
	t.Helper()
	if tr.comps != want.comps {
		t.Errorf("comparisons = %d, oracle %d", tr.comps, want.comps)
	}
	if math.Float64bits(tr.cpu) != math.Float64bits(want.cpu) {
		t.Errorf("CPU seconds = %x, oracle %x", tr.cpu, want.cpu)
	}
	if !reflect.DeepEqual(tr.pairs, want.pairs) {
		t.Errorf("pair stream differs: %d pairs, oracle %d", len(tr.pairs), len(want.pairs))
	}
}

// checkPairTest holds a trace of PairTest calls to JoinCells': the same pairs
// in the same order and the same comparisons. The CPU seconds are summed a
// pair at a time, in another order than JoinCells sums them, so they agree
// to rounding.
func (tr joinTrace) checkPairTest(t *testing.T, want joinTrace) {
	t.Helper()
	if tr.comps != want.comps || !reflect.DeepEqual(tr.pairs, want.pairs) {
		t.Errorf("PairTest: %d pairs over %d comparisons, JoinCells %d over %d",
			len(tr.pairs), tr.comps, len(want.pairs), want.comps)
	}
	if math.Abs(tr.cpu-want.cpu) > 1e-9*want.cpu {
		t.Errorf("PairTest: CPU seconds = %g, JoinCells %g", tr.cpu, want.cpu)
	}
}

func randRows(rng *rand.Rand, n, dim int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for d := range rows[i] {
			rows[i][d] = rng.Float64()
		}
	}
	return rows
}

func randVectorPage(rng *rand.Rand, firstID, n, dim int) *disk.Page {
	var ids []int
	var vecs []geom.Vector
	for i, r := range randRows(rng, n, dim) {
		ids = append(ids, firstID+i)
		vecs = append(vecs, r)
	}
	return vecPage(ids, vecs...)
}

// stringPage cuts the windows firstID … firstID+n−1 of length w at stride
// out of seq, with their frequency vectors over alpha.
func stringPage(seq []byte, alpha *seqdist.Alphabet, firstID, n, w, stride int) *disk.Page {
	p := &disk.Page{Kind: disk.Strings}
	for id := firstID; id < firstID+n; id++ {
		win := seq[id*stride : id*stride+w]
		p.IDs = append(p.IDs, id)
		p.Starts = append(p.Starts, id*stride)
		p.Windows = append(p.Windows, win)
		p.Freqs = append(p.Freqs, alpha.FreqVector(win))
	}
	return p
}

// randSeriesPage draws n windows of length w whose starts advance by stride.
func randSeriesPage(rng *rand.Rand, firstID, n, w, stride int) *disk.Page {
	var ids, starts []int
	for i := range n {
		ids = append(ids, firstID+i)
		starts = append(starts, (firstID+i)*stride)
	}
	return seriesPage(ids, starts, randRows(rng, n, w))
}

// randStringPages draws n pages of 12 DNA windows of length 24 each. The
// windows are mostly A, so a fair share of pairs survives the frequency
// filter and reaches the edit-distance step.
func randStringPages(rng *rand.Rand, n int) []*disk.Page {
	pages := make([]*disk.Page, n)
	id := 0
	for p := range pages {
		sp := &disk.Page{Kind: disk.Strings}
		for i := 0; i < 12; i++ {
			win := make([]byte, 24)
			freq := make([]int, 4)
			for c := range win {
				s := rng.Intn(4) * rng.Intn(2)
				win[c] = "ACGT"[s]
				freq[s]++
			}
			sp.IDs = append(sp.IDs, id)
			sp.Starts = append(sp.Starts, 8*id)
			sp.Windows = append(sp.Windows, win)
			sp.Freqs = append(sp.Freqs, freq)
			id++
		}
		pages[p] = sp
	}
	return pages
}

// epsLadder returns the thresholds every differential case runs at: zero,
// an exact pairwise distance (the boundary), a selective quantile, and one
// beyond the diameter.
func epsLadder(dists []float64) []float64 {
	sorted := append([]float64(nil), dists...)
	sort.Float64s(sorted)
	return []float64{0, dists[len(dists)/2], sorted[len(sorted)/20], 2 * sorted[len(sorted)-1]}
}

// TestJoinPagesMatchesReference is the page-pair half of the oracle: for
// every norm, self and non-self, across the ε ladder, a one-cell JoinCells
// call must emit the reference loop's pairs in the reference order with
// equal comparison counts and bit-equal modeled CPU seconds, and the
// joiner's PairTest, run pair by pair, must decide every pair as JoinCells
// does. Page b carries exact duplicates of page a's points so ε = 0 has
// matches to get right.
func TestJoinPagesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	norms := []geom.Norm{geom.L1, geom.L2, geom.LInf, {P: 3}}
	for _, norm := range norms {
		for _, dim := range []int{3, 8} {
			pa := randVectorPage(rng, 0, 40, dim)
			pb := randVectorPage(rng, 20, 50, dim) // IDs overlap a's, so Self skips some
			for i, v := range rows(pa)[:5] {
				copy(pb.Flat.Row(i), v)
			}
			var dists []float64
			for _, va := range rows(pa) {
				for _, vb := range rows(pb)[5:] {
					dists = append(dists, norm.Dist(va, vb))
				}
			}
			for _, self := range []bool{false, true} {
				for _, eps := range epsLadder(dists) {
					j := VectorJoiner{Norm: norm, Eps: eps, Self: self}
					t.Run(fmt.Sprintf("vector/%v/dim%d/self=%v/eps=%g", norm, dim, self, eps), func(t *testing.T) {
						var got, want joinTrace
						got.add(func(emit func(int, int)) (int64, float64) { return oneCell(j, pa, pb, emit) })
						want.add(func(emit func(int, int)) (int64, float64) { return refVectorJoinPages(j, pa, pb, emit) })
						got.check(t, want)
						var pt joinTrace
						pt.add(func(emit func(int, int)) (int64, float64) { return pairTestJoinPages(j, self, 0, pa, pb, emit) })
						pt.checkPairTest(t, got)
						if eps == 0 && len(want.pairs) == 0 {
							t.Error("ε = 0 matched nothing; the duplicate rows are not being compared")
						}
					})
				}
			}
		}
	}

	const w, stride = 16, 4
	sa := randSeriesPage(rng, 0, 40, w, stride)
	sb := randSeriesPage(rng, 20, 50, w, stride)
	for i, win := range rows(sa)[:5] {
		copy(sb.Flat.Row(10+i), win) // duplicates outside the overlap exclusion
	}
	var dists []float64
	for _, wa := range rows(sa) {
		for _, wb := range rows(sb)[15:] {
			dists = append(dists, geom.L2.Dist(wa, wb))
		}
	}
	for _, self := range []bool{false, true} {
		for _, eps := range epsLadder(dists) {
			j := SeriesJoiner{Eps: eps, Self: self}
			if self {
				j.ExcludeOverlap = w
			}
			t.Run(fmt.Sprintf("series/self=%v/eps=%g", self, eps), func(t *testing.T) {
				var got, want joinTrace
				got.add(func(emit func(int, int)) (int64, float64) { return oneCell(j, sa, sb, emit) })
				want.add(func(emit func(int, int)) (int64, float64) { return refSeriesJoinPages(j, sa, sb, emit) })
				got.check(t, want)
				var pt joinTrace
				pt.add(func(emit func(int, int)) (int64, float64) {
					return pairTestJoinPages(j, self, j.ExcludeOverlap, sa, sb, emit)
				})
				pt.checkPairTest(t, got)
				if eps == 0 && len(want.pairs) == 0 {
					t.Error("ε = 0 matched nothing; the duplicate windows are not being compared")
				}
				if full := int64(len(sa.IDs) * len(sb.IDs)); self && want.comps == full {
					t.Error("self join compared every pair; the id and overlap skips are not in play")
				}
			})
		}
	}

	// Strings: page b is cut from a copy of page a's sequence with about one
	// substitution per window, and the sequence repeats its first 80
	// symbols 120 further on, so every k finds matches, self joins too.
	// Alphabets other than DNA's four symbols change the packed filter's
	// stride, and the large page outgrows its stack scratch.
	const sw, sstride = 24, 4
	srng := rand.New(rand.NewSource(8))
	stringCase := func(name string, j StringJoiner, pa, pb *disk.Page) {
		t.Run("string/"+name, func(t *testing.T) {
			var got, want joinTrace
			got.add(func(emit func(int, int)) (int64, float64) { return oneCell(j, pa, pb, emit) })
			want.add(func(emit func(int, int)) (int64, float64) { return refStringJoinPages(j, pa, pb, emit) })
			got.check(t, want)
			var pt joinTrace
			pt.add(func(emit func(int, int)) (int64, float64) {
				return pairTestJoinPages(j, j.Self, j.ExcludeOverlap, pa, pb, emit)
			})
			pt.checkPairTest(t, got)
			if len(pa.IDs) > 0 && len(pb.IDs) > 0 && len(want.pairs) == 0 {
				t.Error("the reference matched nothing; the verification step is not exercised")
			}
		})
	}
	for _, symbols := range []string{"ACGT", "ACGTN", "AB", "ACDEFGHIKLMNPQRSTVWY"} {
		alpha, err := seqdist.NewAlphabet(symbols)
		if err != nil {
			t.Fatal(err)
		}
		seqA := make([]byte, 2100)
		for i := range seqA {
			seqA[i] = symbols[srng.Intn(len(symbols))]
		}
		copy(seqA[120:200], seqA[:80])
		seqB := append([]byte(nil), seqA...)
		for i := range seqB {
			if srng.Intn(sw) == 0 {
				seqB[i] = symbols[srng.Intn(len(symbols))]
			}
		}
		pa := stringPage(seqA, alpha, 0, 40, sw, sstride)
		for _, k := range []int{0, 2, 5} {
			stringCase(fmt.Sprintf("%s/k=%d", symbols, k), StringJoiner{MaxEdit: k},
				pa, stringPage(seqB, alpha, 20, 50, sw, sstride))
			stringCase(fmt.Sprintf("%s/self/k=%d", symbols, k), StringJoiner{MaxEdit: k, Self: true, ExcludeOverlap: sw},
				pa, stringPage(seqA, alpha, 0, 60, sw, sstride))
		}
		large := stringPage(seqB, alpha, 0, packedStackCells/(alpha.Size()+2)+1, sw, sstride)
		stringCase(symbols+"/large-b", StringJoiner{MaxEdit: 3}, pa, large)
		if symbols == "ACGT" {
			stringCase("empty-a", StringJoiner{MaxEdit: 3}, &disk.Page{Kind: disk.Strings}, large)
			stringCase("empty-b", StringJoiner{MaxEdit: 3}, pa, &disk.Page{Kind: disk.Strings})
		}
	}
}

// oracleDataset writes pages to a fresh file of d behind a flat one-level
// index (the clustered executor only needs the leaves to cover the pages).
func oracleDataset(t testing.TB, d *disk.Disk, name string, pages []*disk.Page) *Dataset {
	t.Helper()
	f := d.CreateFile()
	box := geom.NewMBR(geom.Vector{0})
	root := &index.Node{MBR: box, Page: -1}
	for p, pg := range pages {
		if _, err := d.AppendPage(f, *pg); err != nil {
			t.Fatal(err)
		}
		root.Children = append(root.Children, &index.Node{MBR: box, Page: p})
	}
	return &Dataset{Name: name, File: f, Root: root, Pages: len(pages)}
}

// TestClusteredMatchesOracle is the executor half of the oracle: a clustered
// run — inline and on four workers — must report exactly what a serial fold
// of the reference loops over every cluster's entries, in schedule order,
// produces: equal Comparisons and Results, bit-equal CPUJoinSeconds, and the
// identical collected pair stream. The four workloads cover every JoinCells
// evaluation: the block kernel (non-self vectors at dim 8, where the SIMD
// row sums engage, and non-self series) and the per-cell loops (self joins,
// strings).
func TestClusteredMatchesOracle(t *testing.T) {
	const nPages, buffer, seed = 24, 20, 11
	rng := rand.New(rand.NewSource(seed))
	vectorPages := func(dim int) []*disk.Page {
		pages := make([]*disk.Page, nPages)
		for p := range pages {
			pages[p] = randVectorPage(rng, 100*p, 5+rng.Intn(12), dim)
		}
		return pages
	}
	seriesPages := func() []*disk.Page {
		pages := make([]*disk.Page, nPages)
		for p := range pages {
			pages[p] = randSeriesPage(rng, 20*p, 20, 16, 4)
		}
		return pages
	}

	cases := []struct {
		name   string
		r, s   []*disk.Page // s nil: self join
		joiner ObjectJoiner
	}{
		{"vector-dim8", vectorPages(8), vectorPages(8), VectorJoiner{Norm: geom.L2, Eps: 0.75}},
		{"vector-self", vectorPages(2), nil, VectorJoiner{Norm: geom.L1, Eps: 0.2, Self: true}},
		{"series", seriesPages(), seriesPages(), SeriesJoiner{Eps: 1.35}},
		{"string", randStringPages(rng, nPages), randStringPages(rng, nPages), StringJoiner{MaxEdit: 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := disk.New(disk.DefaultModel())
			dr := oracleDataset(t, d, "r", tc.r)
			ds, sPages := dr, tc.r
			if tc.s != nil {
				ds, sPages = oracleDataset(t, d, "s", tc.s), tc.s
			}
			var marks []predmat.Entry
			mrng := rand.New(rand.NewSource(seed + 1))
			for r := 0; r < nPages; r++ {
				for c := 0; c < nPages; c++ {
					if mrng.Intn(4) != 0 {
						marks = append(marks, predmat.Entry{R: r, C: c})
					}
				}
			}
			m := predmat.FromEntries(nPages, nPages, marks)
			clusters, err := cluster.SquareOpts(m, buffer, cluster.SquareOptions{})
			if err != nil {
				t.Fatal(err)
			}

			split := false
			for _, c := range clusters {
				split = split || len(c.Entries) > taskCells
			}
			if !split {
				t.Fatalf("no cluster exceeds %d entries; run splitting is not exercised", taskCells)
			}

			order := sched.RandomOrder(len(clusters), seed)
			var want joinTrace
			for _, ci := range order {
				for _, en := range clusters[ci].Entries {
					want.add(func(emit func(int, int)) (int64, float64) {
						return refJoinPages(tc.joiner, tc.r[en.R], sPages[en.C], emit)
					})
				}
			}
			if n := int64(len(want.pairs)); n == 0 || n == want.comps {
				t.Fatalf("oracle found %d results in %d comparisons; the workload is vacuous", n, want.comps)
			}

			for _, workers := range []int{0, 4} {
				var got joinTrace
				e := &Engine{Disk: d, BufferSize: buffer, Pairs: NewPairs(1 << 30), Workers: workerGroup(t, workers)}
				rep, err := e.Clustered(dr, ds, m, clusters, pageSetsOf(dr, ds, clusters), order, tc.joiner)
				if err != nil {
					t.Fatal(err)
				}
				got.pairs, _ = MergePairs([]*Pairs{e.Pairs}, 1<<30)
				got.comps, got.cpu = rep.Comparisons, rep.CPUJoinSeconds
				got.check(t, want)
				if rep.Results != int64(len(want.pairs)) {
					t.Errorf("workers %d: Results = %d, oracle %d", workers, rep.Results, len(want.pairs))
				}
			}
		})
	}
}
