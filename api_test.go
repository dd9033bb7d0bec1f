package pmjoin

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"pmjoin/internal/dataset"
	"pmjoin/internal/join"
)

func smallVecSystem(t *testing.T) (*System, *Dataset, *Dataset) {
	t.Helper()
	sys := NewSystem(DiskModel{PageBytes: 256})
	da, err := sys.AddVectors("a", randomVecs(200, 2, 20), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sys.AddVectors("b", randomVecs(150, 2, 21), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sys, da, db
}

func TestNewSystemDefaults(t *testing.T) {
	sys := New()
	m := sys.Model()
	def := DefaultDiskModel()
	if m != def {
		t.Fatalf("model = %+v", m)
	}
	sys2 := NewSystem(DiskModel{PageBytes: 1024})
	if sys2.Model().PageBytes != 1024 || sys2.Model().SeekSeconds != def.SeekSeconds {
		t.Fatal("partial model not defaulted")
	}
}

func TestAddVectorsValidation(t *testing.T) {
	sys := New()
	if _, err := sys.AddVectors("e", nil, VectorOptions{}); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := sys.AddVectors("z", [][]float64{{}}, VectorOptions{}); err == nil {
		t.Fatal("zero-dim accepted")
	}
	if _, err := sys.AddVectors("m", [][]float64{{1, 2}, {1}}, VectorOptions{}); err == nil {
		t.Fatal("ragged accepted")
	}
}

// TestIngestRejectsNonFinite pins the ingest check: a NaN or an infinity in a
// vector coordinate or a series sample is an error that names the dataset
// and the offending index, whichever index build was asked for.
func TestIngestRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	series := func(i int, x float64) []float64 {
		s := make([]float64, 64)
		s[i] = x
		return s
	}
	// vecs returns 200 finite 2-d vectors with vector bad[i] replaced by
	// rows[i].
	vecs := func(bad []int, rows ...[]float64) [][]float64 {
		v := make([][]float64, 200)
		for i := range v {
			v[i] = []float64{float64(i), 1}
		}
		for i, b := range bad {
			v[b] = rows[i]
		}
		return v
	}
	for _, tc := range []struct {
		name string
		add  func(*System, string) error
		want string // the index the error must name
	}{
		{"NaN coordinate", func(s *System, n string) error {
			_, err := s.AddVectors(n, [][]float64{{0, 1}, {2, 3}, {4, nan}}, VectorOptions{})
			return err
		}, "vector 2"},
		{"+Inf coordinate", func(s *System, n string) error {
			_, err := s.AddVectors(n, [][]float64{{inf, 1}, {2, 3}}, VectorOptions{})
			return err
		}, "vector 0"},
		{"-Inf coordinate", func(s *System, n string) error {
			_, err := s.AddVectors(n, [][]float64{{0, 1}, {-inf, 3}}, VectorOptions{})
			return err
		}, "vector 1"},
		// Both offenders of each pair lie past the first 64 vectors, and the
		// error must name the lower one whichever fault it has.
		{"NaN before a short vector", func(s *System, n string) error {
			_, err := s.AddVectors(n, vecs([]int{100, 150}, []float64{0, nan}, []float64{1}), VectorOptions{})
			return err
		}, "vector 100 "},
		{"short vector before a NaN", func(s *System, n string) error {
			_, err := s.AddVectors(n, vecs([]int{70, 90}, []float64{1}, []float64{nan, 0}), VectorOptions{})
			return err
		}, "vector 70 "},
		{"NaN sample", func(s *System, n string) error {
			_, err := s.AddSeries(n, series(17, nan), SeriesOptions{Window: 8})
			return err
		}, "sample 17"},
		{"-Inf sample", func(s *System, n string) error {
			_, err := s.AddSeries(n, series(63, -inf), SeriesOptions{Window: 8})
			return err
		}, "sample 63"},
	} {
		err := tc.add(New(), "hostile")
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, `"hostile"`) || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: error %q names neither the dataset nor %s", tc.name, msg, tc.want)
		}
	}
	// The finite extremes stay legal.
	if _, err := New().AddVectors("big", [][]float64{{math.MaxFloat64, -math.MaxFloat64}, {0, math.SmallestNonzeroFloat64}}, VectorOptions{}); err != nil {
		t.Errorf("finite extremes rejected: %v", err)
	}
}

func TestAddSeriesAndStringValidation(t *testing.T) {
	sys := New()
	if _, err := sys.AddSeries("s", []float64{1, 2}, SeriesOptions{Window: 10}); err == nil {
		t.Fatal("short series accepted")
	}
	if _, err := sys.AddString("q", []byte("AC"), StringOptions{Window: 10}); err == nil {
		t.Fatal("short string accepted")
	}
	if _, err := sys.AddString("q", []byte("ACGTACGTACGT"), StringOptions{Window: 4, Alphabet: "AA"}); err == nil {
		t.Fatal("bad alphabet accepted")
	}
}

func TestJoinOptionValidation(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	if _, err := sys.Join(da, db, Options{Method: SC, Epsilon: 0.1, BufferPages: 2}); err == nil {
		t.Fatal("tiny buffer accepted")
	}
	if _, err := sys.Join(da, db, Options{Method: SC, Epsilon: -1, BufferPages: 8}); err == nil {
		t.Fatal("negative epsilon accepted")
	}
	if _, err := sys.Join(da, db, Options{Method: Method(99), Epsilon: 0.1, BufferPages: 8}); err == nil {
		t.Fatal("unknown method accepted")
	}
	other := New()
	dc, err := other.AddVectors("c", randomVecs(50, 2, 23), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Join(da, dc, Options{Method: SC, Epsilon: 0.1, BufferPages: 8}); err == nil {
		t.Fatal("cross-system join accepted")
	}
	s := dataset.RandomWalk(2000, 1)
	ds, err := sys.AddSeries("walk", s, SeriesOptions{Window: 16, Stride: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Join(da, ds, Options{Method: SC, Epsilon: 0.1, BufferPages: 8}); err == nil {
		t.Fatal("cross-kind join accepted")
	}
}

func TestJoinDimensionMismatch(t *testing.T) {
	sys := New()
	da, _ := sys.AddVectors("d2", randomVecs(64, 2, 1), VectorOptions{})
	db, _ := sys.AddVectors("d3", randomVecs(64, 3, 1), VectorOptions{})
	if _, err := sys.Join(da, db, Options{Method: NLJ, Epsilon: 0.1, BufferPages: 8}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestWindowMismatch(t *testing.T) {
	sys := New()
	s := dataset.RandomWalk(4000, 2)
	a, _ := sys.AddSeries("a", s, SeriesOptions{Window: 16, Stride: 4})
	b, _ := sys.AddSeries("b", s, SeriesOptions{Window: 32, Stride: 4})
	if _, err := sys.Join(a, b, Options{Method: NLJ, Epsilon: 1, BufferPages: 8}); err == nil {
		t.Fatal("window mismatch accepted")
	}
}

func TestCollectPairsAndTruncation(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	res, err := sys.Join(da, db, Options{
		Method: NLJ, Epsilon: 0.2, BufferPages: 8, CollectPairs: true, MaxPairs: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() <= 5 {
		t.Skip("workload too sparse for truncation test")
	}
	if len(res.Pairs) != 5 || !res.Truncated {
		t.Fatalf("pairs = %d truncated = %v", len(res.Pairs), res.Truncated)
	}

	// Caps that straddle a pair-chunk boundary, on the clustered route
	// (chunks written by comparison runs, linked at merge, re-capped across
	// shards) and on EGO (one pair at a time through Exec.Emit). A capped run
	// keeps a prefix of the full run's pairs and reports the same Report.
	sys = NewSystem(DiskModel{PageBytes: 1024})
	da, err = sys.AddVectors("a", randomVecs(1500, 2, 61), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err = sys.AddVectors("b", randomVecs(1500, 2, 62), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{SC, CC, EGO} {
		for _, par := range []int{1, 4} {
			for _, shards := range []int{0, 3} {
				if m == EGO && shards > 0 {
					continue // sharding is for clustered methods
				}
				t.Run(fmt.Sprintf("%v/par=%d/shards=%d", m, par, shards), func(t *testing.T) {
					opt := Options{Method: m, Epsilon: 0.04, BufferPages: 16, Parallelism: par,
						CollectPairs: true, MaxPairs: 1 << 30, Sharding: ShardingOptions{Shards: shards}}
					full, err := sys.Join(da, db, opt)
					if err != nil {
						t.Fatal(err)
					}
					total := len(full.Pairs)
					if full.Truncated || int64(total) != full.Count() || total <= 2*join.ChunkPairs {
						t.Fatalf("full run: %d pairs of %d results, truncated %v; want more than %d",
							total, full.Count(), full.Truncated, 2*join.ChunkPairs)
					}
					for _, cap := range []int{join.ChunkPairs - 1, join.ChunkPairs, join.ChunkPairs + 1} {
						opt.MaxPairs = cap
						res, err := sys.Join(da, db, opt)
						if err != nil {
							t.Fatal(err)
						}
						if !res.Truncated || !reflect.DeepEqual(res.Pairs, full.Pairs[:cap]) ||
							!reflect.DeepEqual(res.Report, full.Report) {
							t.Fatalf("cap %d: %d pairs, truncated %v; want the full run's first %d, truncated, same Report",
								cap, len(res.Pairs), res.Truncated, cap)
						}
					}
				})
			}
		}
	}
}

// raceEnabled reports that the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestCollectPairsAllocatesOnce bounds what a warm, result-heavy join
// allocates: the collected pairs (16 bytes each) are written into pooled
// chunks and copied once into a slice of exactly their size, so the join
// allocates little more than that slice. Growing the result pair by pair,
// as a per-pair callback did, allocates several times the pairs' size.
func TestCollectPairsAllocatesOnce(t *testing.T) {
	sys := NewSystem(DiskModel{PageBytes: 1024})
	da, err := sys.AddVectors("a", randomVecs(4000, 2, 71), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sys.AddVectors("b", randomVecs(4000, 2, 72), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Method: CC, Epsilon: 0.07, BufferPages: 32, CollectPairs: true, MaxPairs: 1 << 30}
	if _, err := sys.Join(da, db, opt); err != nil { // builds the matrix, fills the pools
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := sys.Join(da, db, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	pairs := len(res.Pairs)
	if pairs < 200_000 || res.Truncated || int64(pairs) != res.Count() {
		t.Fatalf("collected %d of %d pairs (truncated %v); the workload must collect every pair, at least 200 000",
			pairs, res.Count(), res.Truncated)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	limit := uint64(16*float64(pairs)*1.2) + 8<<20
	if raceEnabled() {
		// The race detector's sync.Pool drops a quarter of what is put back,
		// so pooled chunks and hit buffers are partly allocated again.
		limit *= 2
	}
	t.Logf("warm join: %d pairs (%.1f MB), allocated %.1f MB", pairs, float64(16*pairs)/(1<<20), float64(alloc)/(1<<20))
	if alloc > limit {
		t.Fatalf("warm join allocated %d bytes for %d pairs, limit %d", alloc, pairs, limit)
	}
}

func TestFIFOPolicyProducesSameResults(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	lru, err := sys.Join(da, db, Options{Method: PMNLJ, Epsilon: 0.1, BufferPages: 8, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := sys.Join(da, db, Options{Method: PMNLJ, Epsilon: 0.1, BufferPages: 8, Policy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	if lru.Count() != fifo.Count() {
		t.Fatalf("policy changed results: %d vs %d", lru.Count(), fifo.Count())
	}
}

func TestResultAccessors(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	res, err := sys.Join(da, db, Options{Method: SC, Epsilon: 0.1, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSeconds() != res.Report.Total() {
		t.Fatal("TotalSeconds mismatch")
	}
	if res.MarkedEntries == 0 || res.MatrixDensity <= 0 {
		t.Fatal("matrix stats missing")
	}
	if res.MatrixSeconds <= 0 {
		t.Fatal("matrix seconds missing")
	}
}

func TestMethodAndKindStrings(t *testing.T) {
	names := []string{NLJ.String(), PMNLJ.String(), RandomSC.String(), SC.String(),
		CC.String(), EGO.String(), BFRJ.String()}
	joined := strings.Join(names, ",")
	if joined != "NLJ,pm-NLJ,random-SC,SC,CC,EGO,BFRJ" {
		t.Fatalf("method names: %s", joined)
	}
	if Method(42).String() == "" || Kind(42).String() == "" {
		t.Fatal("unknown enums must still print")
	}
	if KindVector.String() != "vector" || KindSeries.String() != "series" || KindString.String() != "string" {
		t.Fatal("kind names")
	}
}

func TestDatasetAccessors(t *testing.T) {
	sys := New()
	s := dataset.RandomWalk(4000, 3)
	ds, err := sys.AddSeries("walk", s, SeriesOptions{Window: 16, Stride: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name() != "walk" || ds.Kind() != KindSeries || ds.Window() != 16 {
		t.Fatal("accessors")
	}
	if ds.Pages() == 0 || ds.Objects() == 0 {
		t.Fatal("size accessors")
	}
	if err := ds.root().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrateEpsilon(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	eps, err := sys.CalibrateEpsilon(da, db, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Join(da, db, Options{Method: PMNLJ, Epsilon: eps, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.MatrixDensity < 0.01 || res.MatrixDensity > 0.25 {
		t.Fatalf("calibrated density = %g, want near 0.05", res.MatrixDensity)
	}
}

func TestCalibrateEpsilonErrors(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	if _, err := sys.CalibrateEpsilon(da, db, 0); err == nil {
		t.Fatal("target 0 accepted")
	}
	if _, err := sys.CalibrateEpsilon(da, db, 1); err == nil {
		t.Fatal("target 1 accepted")
	}
	s := dataset.RandomWalk(2000, 4)
	ds, _ := sys.AddSeries("w", s, SeriesOptions{Window: 16, Stride: 4})
	if _, err := sys.CalibrateEpsilon(da, ds, 0.1); err == nil {
		t.Fatal("cross-kind calibration accepted")
	}
}

func TestLInfNorm(t *testing.T) {
	sys := NewSystem(DiskModel{PageBytes: 256})
	vecs := [][]float64{{0, 0}, {0.05, 0.09}, {0.5, 0.5}}
	for len(vecs) < 64 {
		vecs = append(vecs, []float64{float64(len(vecs)), float64(len(vecs))})
	}
	da, err := sys.AddVectors("linf", vecs, VectorOptions{NormP: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Join(da, da, Options{Method: NLJ, Epsilon: 0.1, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Under L-infinity, (0,0) and (0.05,0.09) are within 0.1.
	if res.Count() != 1 {
		t.Fatalf("Linf count = %d, want 1", res.Count())
	}
}

func TestL1Norm(t *testing.T) {
	sys := NewSystem(DiskModel{PageBytes: 256})
	vecs := [][]float64{{0, 0}, {0.05, 0.04}, {0.08, 0.07}}
	for len(vecs) < 64 {
		vecs = append(vecs, []float64{float64(len(vecs)), 0})
	}
	da, err := sys.AddVectors("l1", vecs, VectorOptions{NormP: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Join(da, da, Options{Method: SC, Epsilon: 0.1, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	// L1 pairs within 0.1: (0,0)-(0.05,0.04) = 0.09; (0.05,0.04)-(0.08,0.07) = 0.06.
	if res.Count() != 2 {
		t.Fatalf("L1 count = %d, want 2", res.Count())
	}
}

// TestMatrixCacheEvictsLeastRecentlyUsed: the matrix cache holds
// matrixCacheEntries matrices; one key more evicts the least recently used,
// and a key used every other call keeps its matrix through any number of
// fresh keys. A join built its matrix when its Exec.MatrixWall is non-zero.
func TestMatrixCacheEvictsLeastRecentlyUsed(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	built := func(eps float64) bool {
		t.Helper()
		res, err := sys.Join(da, db, Options{Method: PMNLJ, Epsilon: eps, BufferPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res.Exec.MatrixWall > 0
	}
	epsK := func(k int) float64 { return 0.01 * float64(k+1) }
	for k := 0; k <= matrixCacheEntries; k++ {
		if !built(epsK(k)) {
			t.Fatalf("fresh key %d was not built", k)
		}
	}
	// Hits refresh keys 1…8 in their order, so key 1 stays the least
	// recently used, and evict nothing.
	for k := 1; k <= matrixCacheEntries; k++ {
		if built(epsK(k)) {
			t.Fatalf("key %d of %d evicted", k, matrixCacheEntries)
		}
	}
	if !built(epsK(0)) {
		t.Fatal("the least recently used key 0 was kept past the bound")
	}
	warm := epsK(2) // key 1 went for key 0, so key 2 is now the least recently used
	fresh := func(k int) float64 { return 1 + epsK(k) }
	const rounds = 3 * matrixCacheEntries
	for k := 0; k < rounds; k++ {
		if built(warm) {
			t.Fatalf("warm key evicted after %d fresh keys", k)
		}
		if !built(fresh(k)) {
			t.Fatalf("fresh key %d was not built", k)
		}
	}
	// The warm key and the newest fresh ones fill the cache: they are hits,
	// and the fresh key before them was evicted.
	if built(warm) {
		t.Fatal("warm key evicted")
	}
	for k := rounds - 1; k > rounds-matrixCacheEntries; k-- {
		if built(fresh(k)) {
			t.Fatalf("fresh key %d evicted", k)
		}
	}
	if !built(fresh(rounds - matrixCacheEntries)) {
		t.Fatalf("fresh key %d kept past the bound", rounds-matrixCacheEntries)
	}
}

func TestMatrixCacheReuse(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	const eps = 0.07
	r1, err := sys.Join(da, db, Options{Method: PMNLJ, Epsilon: eps, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	// A second join with the same datasets and epsilon must reuse the
	// cached matrix: identical stats, and identical results.
	r2, err := sys.Join(da, db, Options{Method: SC, Epsilon: eps, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if r1.MarkedEntries != r2.MarkedEntries || r1.MatrixSeconds != r2.MatrixSeconds {
		t.Fatalf("cache not reused: %d/%g vs %d/%g",
			r1.MarkedEntries, r1.MatrixSeconds, r2.MarkedEntries, r2.MatrixSeconds)
	}
	if r1.Count() != r2.Count() {
		t.Fatalf("results differ: %d vs %d", r1.Count(), r2.Count())
	}
	// A different epsilon must not hit the cache.
	r3, err := sys.Join(da, db, Options{Method: PMNLJ, Epsilon: eps * 2, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r3.MarkedEntries <= r1.MarkedEntries {
		t.Fatalf("larger epsilon should mark more: %d vs %d", r3.MarkedEntries, r1.MarkedEntries)
	}
	// FilterDepth is part of the key: disabling the filter must still give
	// the same matrix content (Theorem 1 invariance) via a fresh build.
	r4, err := sys.Join(da, db, Options{Method: PMNLJ, Epsilon: eps, BufferPages: 8, FilterDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	if r4.MarkedEntries != r1.MarkedEntries {
		t.Fatalf("filter changed matrix: %d vs %d", r4.MarkedEntries, r1.MarkedEntries)
	}
}
