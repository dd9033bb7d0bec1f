package pmjoin

import (
	"math"
	"strings"
	"testing"

	"pmjoin/internal/dataset"
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
		{"-Inf coordinate, insert build", func(s *System, n string) error {
			_, err := s.AddVectors(n, [][]float64{{0, 1}, {-inf, 3}}, VectorOptions{UseInsert: true})
			return err
		}, "vector 1"},
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

func TestAddVectorsInsertPath(t *testing.T) {
	sys := NewSystem(DiskModel{PageBytes: 256})
	da, err := sys.AddVectors("ins", randomVecs(120, 2, 22), VectorOptions{UseInsert: true})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sys.AddVectors("str", randomVecs(120, 2, 22), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Same data indexed two ways must join identically.
	r1, err := sys.Join(da, da, Options{Method: SC, Epsilon: 0.05, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys.Join(db, db, Options{Method: SC, Epsilon: 0.05, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Count() != r2.Count() {
		t.Fatalf("insert-built %d vs STR-built %d", r1.Count(), r2.Count())
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
	if _, err := sys.Join(ds, ds, Options{Method: PBSM, Epsilon: 1, BufferPages: 8}); err == nil {
		t.Fatal("PBSM on sequence data accepted")
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
		CC.String(), EGO.String(), BFRJ.String(), PBSM.String()}
	joined := strings.Join(names, ",")
	if joined != "NLJ,pm-NLJ,random-SC,SC,CC,EGO,BFRJ,PBSM" {
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

func TestResetIOStats(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	if _, err := sys.Join(da, db, Options{Method: NLJ, Epsilon: 0.05, BufferPages: 8}); err != nil {
		t.Fatal(err)
	}
	sys.ResetIOStats()
	res, err := sys.Join(da, db, Options{Method: NLJ, Epsilon: 0.05, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.IOSeconds <= 0 {
		t.Fatal("reset broke accounting")
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
