package pmjoin

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"pmjoin/internal/dataset"
	"pmjoin/internal/geom"
	"pmjoin/internal/seqdist"
)

// The API-level half of the comparison oracle. internal/join pins the one
// comparison path against the reference distance loops page pair by page
// pair and cluster by cluster (TestJoinPagesMatchesReference,
// TestClusteredMatchesOracle); the two tests here pin what a caller sees:
// for every data kind, norm and method — and, for the block-kernel
// workloads, every execution configuration — the collected pairs are exactly
// the brute-force scan of the raw input under the plain reference distance.

// oracleLoad is one workload plus its brute-force answer. build adds the
// datasets to a fresh System and returns them with want, which computes the
// sorted pairs (IDs are input positions: vector index, window index) a
// correct join must find.
type oracleLoad struct {
	name    string
	methods []Method
	eps     float64
	page    int
	build   buildOracle
}

type buildOracle func(t *testing.T, sys *System, eps float64) (a, b *Dataset, want func() [][2]int)

// brutePairs scans every (i, j) — i < j only for a self join — and keeps the
// pairs within reports.
func brutePairs(nA, nB int, self bool, within func(i, j int) bool) [][2]int {
	var out [][2]int
	for i := 0; i < nA; i++ {
		for j := 0; j < nB; j++ {
			if (!self || i < j) && within(i, j) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// vectorLoad joins nA random points against nB (nB = 0: self join) under
// the Lp norm normP (VectorOptions.NormP spelling).
func vectorLoad(nA, nB, dim, normP int, seed int64) buildOracle {
	return func(t *testing.T, sys *System, eps float64) (*Dataset, *Dataset, func() [][2]int) {
		norm := geom.Norm{P: normP}
		switch normP { // the two spellings geom does not share
		case 0:
			norm = geom.L2
		case -1:
			norm = geom.LInf
		}
		va := randomVecs(nA, dim, seed)
		da, err := sys.AddVectors("a", va, VectorOptions{NormP: normP})
		if err != nil {
			t.Fatal(err)
		}
		vb, db := va, da
		if nB > 0 {
			vb = randomVecs(nB, dim, seed+1)
			if db, err = sys.AddVectors("b", vb, VectorOptions{NormP: normP}); err != nil {
				t.Fatal(err)
			}
		}
		return da, db, func() [][2]int {
			return brutePairs(len(va), len(vb), nB == 0, func(i, j int) bool {
				if norm == geom.L2 {
					return geom.DistSq(va[i], vb[j]) <= eps*eps
				}
				return norm.Dist(va[i], vb[j]) <= eps
			})
		}
	}
}

// seriesLoad joins the stride-4 length-32 windows of a random walk of nA
// samples against those of a second walk of nB (nB = 0: self join, which
// also excludes overlapping windows).
func seriesLoad(nA, nB int) buildOracle {
	const window, stride = 32, 4
	return func(t *testing.T, sys *System, eps float64) (*Dataset, *Dataset, func() [][2]int) {
		sa := dataset.RandomWalk(nA, 20)
		da, err := sys.AddSeries("wa", sa, SeriesOptions{Window: window, Stride: stride})
		if err != nil {
			t.Fatal(err)
		}
		sb, db := sa, da
		if nB > 0 {
			sb = dataset.RandomWalk(nB, 21)
			if db, err = sys.AddSeries("wb", sb, SeriesOptions{Window: window, Stride: stride}); err != nil {
				t.Fatal(err)
			}
		}
		return da, db, func() [][2]int {
			return brutePairs(da.Objects(), db.Objects(), nB == 0, func(i, j int) bool {
				if nB == 0 && (j-i)*stride < window {
					return false
				}
				return geom.DistSq(sa[i*stride:i*stride+window], sb[j*stride:j*stride+window]) <= eps*eps
			})
		}
	}
}

// stringLoad joins the stride-8 length-64 windows of two DNA strings with
// planted homologies under edit distance 4. Its full-DP scan is the one
// expensive oracle (seconds under -race), so the tests share one run of it.
func stringLoad(t *testing.T, sys *System, eps float64) (*Dataset, *Dataset, func() [][2]int) {
	const window, stride = 64, 8
	sa := dataset.DNA(2000, 10)
	sb := dataset.DNA(1500, 11)
	dataset.PlantHomologies(sb, sa, 5, 80, 0.02, 12)
	da, err := sys.AddString("a", sa, StringOptions{Window: window, Stride: stride})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sys.AddString("b", sb, StringOptions{Window: window, Stride: stride})
	if err != nil {
		t.Fatal(err)
	}
	if eps != stringEps {
		t.Fatalf("stringLoad's shared oracle is for ε = %d, not %g", stringEps, eps)
	}
	return da, db, func() [][2]int {
		stringOracle.Do(func() {
			stringPairs = brutePairs(da.Objects(), db.Objects(), false, func(i, j int) bool {
				return seqdist.EditDistance(sa[i*stride:i*stride+window], sb[j*stride:j*stride+window]) <= stringEps
			})
		})
		return stringPairs
	}
}

const stringEps = 4

var (
	stringOracle sync.Once
	stringPairs  [][2]int
)

// checkOracle runs one join and holds its collected pairs to want.
func checkOracle(t *testing.T, sys *System, a, b *Dataset, opt Options, want [][2]int) *Result {
	t.Helper()
	opt.CollectPairs = true
	res, err := sys.Join(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedPairs(res.Pairs); res.Truncated || res.Count() != int64(len(want)) || !reflect.DeepEqual(got, want) {
		t.Errorf("parallelism %d shards %d: %d pairs (count %d), oracle %d",
			opt.Parallelism, opt.Sharding.Shards, len(got), res.Count(), len(want))
	}
	return res
}

// TestKernelsDeterminism: every data kind, norm and method, at Parallelism 1
// and GOMAXPROCS, finds exactly the oracle's pairs, with a Result and Plan
// that do not depend on the parallelism.
func TestKernelsDeterminism(t *testing.T) {
	sub := []Method{PMNLJ, EGO, BFRJ} // covers the matrix, grid and index pipelines
	loads := []oracleLoad{
		{"vector-L2", allMethods, 0.05, 256, vectorLoad(300, 200, 2, 0, 1)},
		{"vector-L1", sub, 0.08, 256, vectorLoad(250, 0, 3, 1, 3)},
		{"vector-Linf", sub, 0.05, 256, vectorLoad(250, 0, 3, -1, 4)},
		{"vector-L3", sub, 0.06, 256, vectorLoad(250, 0, 3, 3, 5)},
		{"series", allMethods, 8.0, 1024, seriesLoad(2500, 0)},
		{"string", []Method{PMNLJ, SC, BFRJ}, 4, 512, stringLoad},
	}
	for _, w := range loads {
		t.Run(w.name, func(t *testing.T) {
			sys := NewSystem(DiskModel{PageBytes: w.page})
			a, b, oracle := w.build(t, sys, w.eps)
			want := oracle()
			if len(want) == 0 {
				t.Fatal("oracle found no pairs; the comparison is vacuous")
			}
			for _, m := range w.methods {
				t.Run(m.String(), func(t *testing.T) {
					opt := Options{Method: m, Epsilon: w.eps, BufferPages: 16, Parallelism: 1}
					serial := checkOracle(t, sys, a, b, opt, want)
					serialPlan, err := sys.Explain(a, b, opt)
					if err != nil {
						t.Fatal(err)
					}
					opt.Parallelism = 0 // GOMAXPROCS
					par := checkOracle(t, sys, a, b, opt, want)
					parPlan, err := sys.Explain(a, b, opt)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := deterministicFields(par), deterministicFields(serial); !reflect.DeepEqual(got, want) {
						t.Errorf("parallel result differs:\n serial:   %+v\n parallel: %+v", want, got)
					}
					if !reflect.DeepEqual(parPlan, serialPlan) {
						t.Errorf("parallel plan differs:\n serial:   %+v\n parallel: %+v", serialPlan, parPlan)
					}
				})
			}
		})
	}
}

// TestBatchKernelsDeterminism: the clustered methods find exactly the
// oracle's pairs whichever evaluation their runs' JoinCells calls take — the
// block kernel (non-self vectors and series; dim 8 so the SIMD row sums
// engage) or the per-cell loops (self joins, strings) — and, for the dim-8
// workload, across the parallelism × sharding cross.
func TestBatchKernelsDeterminism(t *testing.T) {
	type config struct{ par, shards int }
	small := []config{{par: 1}, {par: 0}}
	full := []config{{1, 0}, {1, 3}, {0, 0}, {0, 3}}
	loads := []struct {
		oracleLoad
		configs []config
	}{
		{oracleLoad{"vector-L2-dim8", []Method{SC, CC, RandomSC}, 0.55, 512, vectorLoad(300, 200, 8, 0, 1)}, full},
		{oracleLoad{"vector-L1", []Method{SC}, 0.15, 256, vectorLoad(250, 200, 3, 1, 3)}, small},
		{oracleLoad{"vector-self", []Method{SC}, 0.05, 256, vectorLoad(300, 0, 2, 0, 5)}, small},
		{oracleLoad{"series", []Method{SC, CC}, 8.0, 1024, seriesLoad(2000, 1500)}, small},
		{oracleLoad{"string", []Method{SC}, 4, 512, stringLoad}, small},
	}
	for _, w := range loads {
		t.Run(w.name, func(t *testing.T) {
			sys := NewSystem(DiskModel{PageBytes: w.page})
			a, b, oracle := w.build(t, sys, w.eps)
			want := oracle()
			if len(want) == 0 {
				t.Fatal("oracle found no pairs; the comparison is vacuous")
			}
			for _, m := range w.methods {
				t.Run(m.String(), func(t *testing.T) {
					for _, c := range w.configs {
						checkOracle(t, sys, a, b, Options{
							Method: m, Epsilon: w.eps, BufferPages: 16, Parallelism: c.par,
							Sharding: ShardingOptions{Shards: c.shards},
						}, want)
					}
				})
			}
		})
	}
}

// TestBatchDispatchRan guards the oracle comparisons against vacuity: a
// batchable clustered run must report that the block kernel actually
// evaluated clusters, and a self or string join — whose runs take the
// per-cell loops — must report none.
func TestBatchDispatchRan(t *testing.T) {
	cases := []struct {
		oracleLoad
		block bool
	}{
		{oracleLoad{"vector-L2-dim8", nil, 0.55, 512, vectorLoad(300, 200, 8, 0, 1)}, true},
		{oracleLoad{"vector-self", nil, 0.05, 256, vectorLoad(300, 0, 2, 0, 5)}, false},
		{oracleLoad{"string", nil, 4, 512, stringLoad}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := NewSystem(DiskModel{PageBytes: tc.page})
			a, b, _ := tc.build(t, sys, tc.eps)
			res, err := sys.Join(a, b, Options{Method: SC, Epsilon: tc.eps, BufferPages: 16})
			if err != nil {
				t.Fatal(err)
			}
			x := res.Exec
			switch {
			case tc.block && (x.BatchClusters == 0 || x.BatchCells == 0 || x.BatchRows == 0):
				t.Errorf("batchable run reported no block-kernel dispatch: %+v", x)
			case tc.block && x.BatchClusters > res.Report.Clusters:
				t.Errorf("block kernel ran %d of %d clusters", x.BatchClusters, res.Report.Clusters)
			case !tc.block && (x.BatchClusters != 0 || x.BatchCells != 0):
				t.Errorf("per-cell run reported block-kernel dispatch: %+v", x)
			}
		})
	}
}

// TestStringEpsilonBeyondWindow: a string ε at or above the window length
// matches every pair however large it is — ε ≥ 2⁶³ and +Inf once converted
// to MinInt and matched nothing — on every method, and a NaN ε is refused.
func TestStringEpsilonBeyondWindow(t *testing.T) {
	const window = 32
	sa := dataset.DNA(window+46, 30) // 47 windows at stride 1
	sb := dataset.DNA(window+46, 31)
	sys := NewSystem(DiskModel{PageBytes: 48})
	a, err := sys.AddString("a", sa, StringOptions{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.AddString("b", sb, StringOptions{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{window, 1e6, 1e19, math.Inf(1)} {
		want := brutePairs(a.Objects(), b.Objects(), false, func(i, j int) bool {
			return float64(seqdist.EditDistance(sa[i:i+window], sb[j:j+window])) <= eps
		})
		for _, m := range allMethods {
			t.Run(fmt.Sprintf("%v/eps=%g", m, eps), func(t *testing.T) {
				checkOracle(t, sys, a, b, Options{Method: m, Epsilon: eps, BufferPages: 8}, want)
			})
		}
	}
	if _, err := sys.Join(a, b, Options{Method: SC, Epsilon: math.NaN(), BufferPages: 8}); err == nil {
		t.Error("a NaN epsilon was accepted")
	}
}

// l2Boundary returns points a and b whose pairs (a[i], b[i]) lie within a
// few ulps of L2 distance eps: ε along one axis and one ulp either side of
// it; ε along it plus a sliver across it that lifts Σ(a−b)² to about one
// ulp above fl(ε²) while its root still rounds to ε; and points of the
// circle of radius ε nudged by up to two ulps. The pairs lie far apart, so
// a[i] joins no b[j] of another pair.
func l2Boundary(eps float64) (a, b [][]float64) {
	spacing := 4 * (eps + 1)
	add := func(across, along float64) {
		x := spacing * float64(len(a))
		a = append(a, []float64{x, 0})
		b = append(b, []float64{x + across, along})
	}
	for _, along := range []float64{eps, math.Nextafter(eps, 0), math.Nextafter(eps, math.Inf(1))} {
		add(0, along)
	}
	ulp := math.Nextafter(eps*eps, math.Inf(1)) - eps*eps
	for _, f := range []float64{0.25, 0.5, 0.75, 1, 1.5, 2} {
		add(math.Sqrt(f*ulp), eps)
	}
	for k := 1; k < 24; k++ {
		sin, cos := math.Sincos(float64(k) * math.Pi / 48)
		along := eps * cos
		for n := -2; n <= 2; n++ {
			v := along
			for ; n < 0; n++ {
				v = math.Nextafter(v, 0)
			}
			for i := 0; i < n; i++ {
				v = math.Nextafter(v, math.Inf(1))
			}
			add(eps*sin, v)
		}
	}
	return a, b
}

// TestL2BoundaryAllMethods: on vector L2 every method decides a pair as
// Σ(a−b)² ≤ fl(ε²), the oracle's test, also where that and √Σ(a−b)² ≤ ε
// disagree — (0, 0) and (1, 2⁻²⁶) at ε = 1 join under the root and not
// under the square. Cross and self joins, at Parallelism 1 and GOMAXPROCS,
// find exactly the oracle's pairs. At ε = 0.05 the two tests agree on every
// float (no float above fl(ε²) has a root ≤ ε); at the other four they do
// not.
func TestL2BoundaryAllMethods(t *testing.T) {
	for _, eps := range []float64{1, 0.7, 0.55, 2.5, 0.05} {
		va, vb := l2Boundary(eps)
		var inside, rootOnly int
		for i := range va {
			d := geom.DistSq(va[i], vb[i])
			switch {
			case d <= eps*eps:
				inside++
			case math.Sqrt(d) <= eps:
				rootOnly++
			}
		}
		split := math.Sqrt(math.Nextafter(eps*eps, math.Inf(1))) <= eps
		if inside == 0 || inside+rootOnly == len(va) || split != (rootOnly > 0) {
			t.Fatalf("eps %g: %d pairs inside, %d outside only by the square, of %d; the boundary is not exercised",
				eps, inside, rootOnly, len(va))
		}
		within := func(x, y []float64) bool { return geom.DistSq(x, y) <= eps*eps }
		all := append(append([][]float64(nil), va...), vb...)
		sys := NewSystem(DiskModel{PageBytes: 256})
		da, err := sys.AddVectors("a", va, VectorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		db, err := sys.AddVectors("b", vb, VectorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dall, err := sys.AddVectors("all", all, VectorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cross := brutePairs(len(va), len(vb), false, func(i, j int) bool { return within(va[i], vb[j]) })
		self := brutePairs(len(all), len(all), true, func(i, j int) bool { return within(all[i], all[j]) })
		for _, m := range allMethods {
			for _, par := range []int{1, 0} {
				t.Run(fmt.Sprintf("eps=%g/%v/par=%d", eps, m, par), func(t *testing.T) {
					opt := Options{Method: m, Epsilon: eps, BufferPages: 16, Parallelism: par}
					checkOracle(t, sys, da, db, opt, cross)
					checkOracle(t, sys, dall, dall, opt, self)
				})
			}
		}
	}
}
