package join

import (
	"math/rand"
	"strings"
	"testing"

	"pmjoin/internal/cluster"
	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/index"
	"pmjoin/internal/predmat"
	"pmjoin/internal/rstar"
	"pmjoin/internal/sched"
)

// buildVectorDataset materializes n random 2-d points as an STR-packed R-tree
// dataset on d and returns it with the per-page vectors.
func buildVectorDataset(t *testing.T, d *disk.Disk, rng *rand.Rand, name string, n, leafCap int) (*Dataset, [][]geom.Vector) {
	t.Helper()
	items := make([]rstar.Item, n)
	for i := range items {
		items[i] = rstar.PointItem(i, geom.Vector{rng.Float64(), rng.Float64()})
	}
	tr, err := rstar.BulkLoadSTR(2, rstar.DefaultConfig(leafCap), items)
	if err != nil {
		t.Fatal(err)
	}
	pages := tr.Pack()
	f := d.CreateFile()
	raw := make([][]geom.Vector, len(pages))
	for p, pg := range pages {
		var ids []int
		for _, it := range pg {
			ids = append(ids, it.ID)
			raw[p] = append(raw[p], it.MBR.Min)
		}
		if _, err := d.AppendPage(f, *vecPage(ids, raw[p]...)); err != nil {
			t.Fatal(err)
		}
	}
	return &Dataset{Name: name, File: f, Root: tr.Root(), Pages: len(pages)}, raw
}

func bruteCount(pa, pb [][]geom.Vector, eps float64) int64 {
	var count int64
	for _, pageA := range pa {
		for _, va := range pageA {
			for _, pageB := range pb {
				for _, vb := range pageB {
					if geom.L2.Dist(va, vb) <= eps {
						count++
					}
				}
			}
		}
	}
	return count
}

func testSetup(t *testing.T, seed int64, nA, nB int) (*disk.Disk, *Dataset, *Dataset, int64, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := disk.New(disk.DefaultModel())
	const eps = 0.05
	da, rawA := buildVectorDataset(t, d, rng, "A", nA, 8)
	db, rawB := buildVectorDataset(t, d, rng, "B", nB, 8)
	want := bruteCount(rawA, rawB, eps)
	if want == 0 {
		t.Fatal("workload has no results")
	}
	return d, da, db, want, eps
}

func buildMatrix(t *testing.T, da, db *Dataset, eps float64) *predmat.Matrix {
	t.Helper()
	m, err := predmat.Build(da.Root, db.Root, da.Pages, db.Pages, eps,
		predmat.NormPredictor{Norm: geom.L2}, predmat.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pageSetsOf returns the clusters' pinned page sets, as internal/shard
// builds them.
func pageSetsOf(r, s *Dataset, clusters []*cluster.Cluster) []sched.PageSet {
	sets := make([]sched.PageSet, len(clusters))
	for i, c := range clusters {
		sets[i] = sched.NewPageSet(r.File, c.Rows(), s.File, c.Cols())
	}
	return sets
}

// runScheduled runs the clustered join in the paper's greedy schedule (§8),
// the order internal/shard plans for an unsharded run.
func runScheduled(e *Engine, r, s *Dataset, m *predmat.Matrix, clusters []*cluster.Cluster, j ObjectJoiner) (*Report, error) {
	pages := pageSetsOf(r, s, clusters)
	return e.Clustered(r, s, m, clusters, pages, sched.GreedyOrder(len(pages), sched.SharingGraph(pages)), j)
}

func TestNLJMatchesBruteForce(t *testing.T) {
	d, da, db, want, eps := testSetup(t, 1, 300, 200)
	e := &Engine{Disk: d, BufferSize: 8}
	rep, err := e.NLJ(da, db, VectorJoiner{Norm: geom.L2, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results != want {
		t.Fatalf("results = %d, want %d", rep.Results, want)
	}
	if rep.PageReads == 0 || rep.IOSeconds <= 0 || rep.CPUJoinSeconds <= 0 {
		t.Fatalf("report not populated: %+v", rep)
	}
	if rep.Comparisons != int64(300*200) {
		t.Fatalf("NLJ comparisons = %d, want all pairs", rep.Comparisons)
	}
}

func TestPMNLJMatchesNLJ(t *testing.T) {
	d, da, db, want, eps := testSetup(t, 2, 300, 200)
	e := &Engine{Disk: d, BufferSize: 8}
	m := buildMatrix(t, da, db, eps)
	rep, err := e.PMNLJ(da, db, m, VectorJoiner{Norm: geom.L2, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results != want {
		t.Fatalf("results = %d, want %d", rep.Results, want)
	}
	if rep.MarkedEntries != m.Marked() {
		t.Fatal("marked entries not reported")
	}
	// Prediction must reduce comparisons.
	if rep.Comparisons >= int64(300*200) {
		t.Fatalf("pm-NLJ compared %d pairs, no reduction", rep.Comparisons)
	}
}

func TestPMNLJWithFullMatrixEqualsNLJ(t *testing.T) {
	d, da, db, want, eps := testSetup(t, 3, 200, 150)
	e := &Engine{Disk: d, BufferSize: 8}
	full := predmat.Full(da.Pages, db.Pages)
	rep, err := e.PMNLJ(da, db, full, VectorJoiner{Norm: geom.L2, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results != want {
		t.Fatalf("results = %d, want %d", rep.Results, want)
	}
	if rep.Comparisons != int64(200*150) {
		t.Fatalf("comparisons = %d", rep.Comparisons)
	}
}

func TestPMNLJMatrixShapeMismatch(t *testing.T) {
	d, da, db, _, eps := testSetup(t, 4, 100, 100)
	e := &Engine{Disk: d, BufferSize: 8}
	bad := predmat.FromEntries(da.Pages+1, db.Pages)
	if _, err := e.PMNLJ(da, db, bad, VectorJoiner{Norm: geom.L2, Eps: eps}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestClusteredMatchesNLJAllOrders(t *testing.T) {
	d, da, db, want, eps := testSetup(t, 5, 300, 200)
	m := buildMatrix(t, da, db, eps)
	clusters, err := cluster.SquareOpts(m, 12, cluster.SquareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pages := pageSetsOf(da, db, clusters)
	reversed := make([]int, len(clusters))
	for i := range reversed {
		reversed[i] = len(clusters) - 1 - i
	}
	for _, tc := range []struct {
		name  string
		order []int
	}{
		{"greedy", sched.GreedyOrder(len(pages), sched.SharingGraph(pages))},
		{"random", sched.RandomOrder(len(clusters), 9)},
		{"reversed", reversed},
	} {
		e := &Engine{Disk: d, BufferSize: 12}
		rep, err := e.Clustered(da, db, m, clusters, pages, tc.order, VectorJoiner{Norm: geom.L2, Eps: eps})
		if err != nil {
			t.Fatalf("%s order: %v", tc.name, err)
		}
		if rep.Results != want {
			t.Fatalf("%s order: results = %d, want %d", tc.name, rep.Results, want)
		}
		if rep.Clusters != len(clusters) {
			t.Fatalf("clusters = %d", rep.Clusters)
		}
	}
}

func TestClusteredRejectsOversizedCluster(t *testing.T) {
	d, da, db, _, eps := testSetup(t, 6, 200, 150)
	m := buildMatrix(t, da, db, eps)
	clusters, err := cluster.SquareOpts(m, 16, cluster.SquareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Disk: d, BufferSize: 8} // smaller than the clusters were built for
	_, err = runScheduled(e, da, db, m, clusters, VectorJoiner{Norm: geom.L2, Eps: eps})
	if err == nil {
		t.Fatal("oversized cluster accepted")
	}
}

func TestEngineValidation(t *testing.T) {
	d, da, db, _, eps := testSetup(t, 7, 100, 100)
	j := VectorJoiner{Norm: geom.L2, Eps: eps}
	if _, err := (&Engine{Disk: nil, BufferSize: 8}).NLJ(da, db, j); err == nil {
		t.Fatal("nil disk accepted")
	}
	if _, err := (&Engine{Disk: d, BufferSize: 2}).NLJ(da, db, j); err == nil {
		t.Fatal("tiny buffer accepted")
	}
	bad := &Dataset{Name: "bad", File: da.File, Root: da.Root, Pages: da.Pages + 5}
	if _, err := (&Engine{Disk: d, BufferSize: 8}).NLJ(bad, db, j); err == nil {
		t.Fatal("page count mismatch accepted")
	}
	noRoot := &Dataset{Name: "x", File: da.File, Pages: da.Pages}
	if _, err := (&Engine{Disk: d, BufferSize: 8}).NLJ(noRoot, db, j); err == nil {
		t.Fatal("missing root accepted")
	}
}

// TestRunRejectsLeakedPin: a body that returns successfully while holding a
// pin fails its run, naming the method; one that releases its pins does not.
func TestRunRejectsLeakedPin(t *testing.T) {
	d, da, _, _, _ := testSetup(t, 7, 100, 100)
	e := &Engine{Disk: d, BufferSize: 8}
	addr := disk.PageAddr{File: da.File, Page: 0}
	_, err := e.Run("leaky", func(x *Exec) error {
		_, err := x.Pool.GetPinned(addr)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "leaky returned with 1 pinned frame(s)") {
		t.Fatalf("leaked pin: err = %v, want the pinned-frame error", err)
	}
	if _, err := e.Run("tidy", func(x *Exec) error {
		if _, err := x.Pool.GetPinned(addr); err != nil {
			return err
		}
		return x.Pool.Unpin(addr)
	}); err != nil {
		t.Fatalf("released pin: %v", err)
	}
}

// TestOnPairCallback checks that the engine's pair collector keeps every
// result pair of a run, and nothing else.
func TestOnPairCallback(t *testing.T) {
	d, da, db, want, eps := testSetup(t, 8, 150, 150)
	e := &Engine{Disk: d, BufferSize: 8, Pairs: NewPairs(1 << 30)}
	rep, err := e.NLJ(da, db, VectorJoiner{Norm: geom.L2, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	got, truncated := MergePairs([]*Pairs{e.Pairs}, 1<<30)
	if int64(len(got)) != want || rep.Results != want || truncated {
		t.Fatalf("collected %d pairs (truncated %v), results %d, want %d", len(got), truncated, rep.Results, want)
	}
}

func TestSelfJoinConsistentAcrossExecutors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := disk.New(disk.DefaultModel())
	da, raw := buildVectorDataset(t, d, rng, "A", 250, 8)
	const eps = 0.04
	var want int64
	for _, pa := range raw {
		for _, va := range pa {
			for _, pb := range raw {
				for _, vb := range pb {
					if geom.L2.Dist(va, vb) <= eps {
						want++
					}
				}
			}
		}
	}
	// Self joiner counts each unordered pair once; brute force counted
	// ordered pairs including identity.
	want = (want - 250) / 2
	j := VectorJoiner{Norm: geom.L2, Eps: eps, Self: true}
	e := &Engine{Disk: d, BufferSize: 10}

	nlj, err := e.NLJ(da, da, j)
	if err != nil {
		t.Fatal(err)
	}
	if nlj.Results != want {
		t.Fatalf("NLJ self = %d, want %d", nlj.Results, want)
	}
	m := buildMatrix(t, da, da, eps)
	pm, err := e.PMNLJ(da, da, m, j)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Results != want {
		t.Fatalf("pm-NLJ self = %d, want %d", pm.Results, want)
	}
	clusters, err := cluster.SquareOpts(m, 10, cluster.SquareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := runScheduled(e, da, da, m, clusters, j)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Results != want {
		t.Fatalf("SC self = %d, want %d", sc.Results, want)
	}
}

func TestReportTotalAndString(t *testing.T) {
	r := &Report{Method: "x", IOSeconds: 1, CPUJoinSeconds: 2, PreprocessSeconds: 0.5}
	if r.Total() != 3.5 {
		t.Fatalf("total = %g", r.Total())
	}
	if r.String() == "" {
		t.Fatal("empty string")
	}
}

func TestPreprocessModels(t *testing.T) {
	if ModelSCPreprocess(1000) <= 0 || ModelCCPreprocess(1000) <= ModelSCPreprocess(1000) {
		t.Fatal("CC preprocessing must exceed SC's")
	}
	if ModelSchedulePreprocess(0) != 0 {
		t.Fatal("zero edges must cost zero")
	}
	if ModelSchedulePreprocess(1000) <= ModelSchedulePreprocess(10) {
		t.Fatal("schedule cost must grow")
	}
}

// TestClusteredIOBeatsPMNLJOnBandedWorkload checks the core I/O claim
// (Theorem 2): with a small buffer, the clustered executor reads fewer
// pages than pm-NLJ's row-at-a-time pattern.
func TestClusteredIOBeatsPMNLJOnBandedWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := disk.New(disk.DefaultModel())
	// Clustered points give a banded, dense matrix at a large epsilon.
	da, _ := buildVectorDataset(t, d, rng, "A", 900, 6)
	db, _ := buildVectorDataset(t, d, rng, "B", 900, 6)
	const eps = 0.12
	m := buildMatrix(t, da, db, eps)
	if m.Density() < 0.02 {
		t.Skipf("matrix density %g too low for the thrash regime", m.Density())
	}
	j := VectorJoiner{Norm: geom.L2, Eps: eps}
	const b = 10
	e := &Engine{Disk: d, BufferSize: b}
	pm, err := e.PMNLJ(da, db, m, j)
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := cluster.SquareOpts(m, b, cluster.SquareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := runScheduled(e, da, db, m, clusters, j)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Results != pm.Results {
		t.Fatalf("result mismatch: %d vs %d", sc.Results, pm.Results)
	}
	if sc.PageReads >= pm.PageReads {
		t.Fatalf("SC reads %d >= pm-NLJ reads %d", sc.PageReads, pm.PageReads)
	}
}

// TestLemma2NoIntraClusterMisses: once a cluster's pages are read, joining
// its marked pairs causes no further disk I/O (Lemma 2); total misses are
// bounded by the summed cluster page counts.
func TestLemma2NoIntraClusterMisses(t *testing.T) {
	d, da, db, _, eps := testSetup(t, 11, 400, 300)
	m := buildMatrix(t, da, db, eps)
	clusters, err := cluster.SquareOpts(m, 14, cluster.SquareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var totalPages int64
	for _, c := range clusters {
		totalPages += int64(c.Pages())
	}
	e := &Engine{Disk: d, BufferSize: 14}
	rep, err := runScheduled(e, da, db, m, clusters, VectorJoiner{Norm: geom.L2, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Misses > totalPages {
		t.Fatalf("misses %d exceed cluster page total %d: intra-cluster I/O", rep.Misses, totalPages)
	}
	if rep.PageReads != rep.Misses {
		t.Fatalf("page reads %d != misses %d", rep.PageReads, rep.Misses)
	}
}

// TestDatasetValidatePageCoverage holds Validate's leaf checks: leaves may
// share a page, but every page must be covered and no leaf may name a page
// outside the file.
func TestDatasetValidatePageCoverage(t *testing.T) {
	d := disk.New(disk.DefaultModel())
	f := d.CreateFile()
	for i := 0; i < 3; i++ {
		if _, err := d.AppendPage(f, *vecPage([]int{i}, geom.Vector{float64(i), 0})); err != nil {
			t.Fatal(err)
		}
	}
	leaf := func(p int) *index.Node {
		return &index.Node{MBR: geom.NewMBR(geom.Vector{float64(p), 0}), Page: p}
	}
	root := func(pages ...int) *index.Node {
		n := &index.Node{MBR: geom.MBR{Min: geom.Vector{-1, -1}, Max: geom.Vector{3, 1}}, Page: -1}
		for _, p := range pages {
			n.Children = append(n.Children, leaf(p))
		}
		return n
	}
	for _, tc := range []struct {
		pages []int
		want  string // "" for valid
	}{
		{[]int{0, 1, 2}, ""},
		{[]int{2, 0, 1, 1}, ""},
		{[]int{0, 1, 1}, "leaves cover 2 of 3 pages"},
		{[]int{0, 1}, "has 2 leaves for 3 pages"},
		{[]int{0, 1, 3}, "leaf page 3 out of range"},
	} {
		ds := &Dataset{Name: "v", File: f, Root: root(tc.pages...), Pages: 3}
		err := ds.Validate(d)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("leaves %v: %v", tc.pages, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("leaves %v: error %v, want %q", tc.pages, err, tc.want)
		}
	}
}
