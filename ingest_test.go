package pmjoin

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pmjoin/internal/dataset"
	"pmjoin/internal/disk"
	"pmjoin/internal/pool"
)

// atLeastTwoProcs raises GOMAXPROCS to 2 for the rest of the test, so that
// AddVectors loads on a worker pool even on a one-core host.
func atLeastTwoProcs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestIngestedDatasetsValidate walks the whole index of datasets from all
// three Add* calls with join.Dataset.Validate: every node's MBR must contain
// its children's and the leaves must cover every page; a vector leaf must
// also contain its page's rows. Ingest checks only the page count, so this
// is the check that a loader builds such a tree, on the inputs where one is
// easiest to get wrong.
func TestIngestedDatasetsValidate(t *testing.T) {
	atLeastTwoProcs(t)
	rep := func(n int, v []float64) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	line := func(n, dim int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, dim)
			for d := range out[i] {
				out[i][d] = float64(i) * float64(d+1) / float64(n)
			}
		}
		return out
	}
	extremes := [][]float64{{math.MaxFloat64, -math.MaxFloat64}, {0, math.SmallestNonzeroFloat64}, {-math.MaxFloat64, 1}}
	constant := make([]float64, 64)
	for _, tc := range []struct {
		name string
		add  func(*System) (*Dataset, error)
	}{
		{"one vector", func(s *System) (*Dataset, error) { return s.AddVectors("v", [][]float64{{0.5, 0.5}}, VectorOptions{}) }},
		{"fewer vectors than a page", func(s *System) (*Dataset, error) { return s.AddVectors("v", randomVecs(5, 2, 1), VectorOptions{}) }},
		{"all duplicates", func(s *System) (*Dataset, error) {
			return s.AddVectors("v", rep(3000, []float64{0.25, 0.5, 0.75}), VectorOptions{})
		}},
		{"collinear", func(s *System) (*Dataset, error) { return s.AddVectors("v", line(3000, 16), VectorOptions{}) }},
		{"finite extremes", func(s *System) (*Dataset, error) { return s.AddVectors("v", extremes, VectorOptions{}) }},
		{"dim 1", func(s *System) (*Dataset, error) { return s.AddVectors("v", randomVecs(5000, 1, 2), VectorOptions{}) }},
		{"dim 2", func(s *System) (*Dataset, error) {
			return s.AddVectors("v", dataset.ToFloats(dataset.RoadIntersections(20000, 3)), VectorOptions{PageBytes: 1024})
		}},
		{"dim 60", func(s *System) (*Dataset, error) {
			return s.AddVectors("v", dataset.ToFloats(dataset.Landsat(8000, 60, 4)), VectorOptions{})
		}},
		{"series", func(s *System) (*Dataset, error) {
			return s.AddSeries("w", dataset.RandomWalk(4000, 5), SeriesOptions{Window: 16, Stride: 4})
		}},
		{"constant series", func(s *System) (*Dataset, error) { return s.AddSeries("w", constant, SeriesOptions{Window: 8}) }},
		{"one-window series", func(s *System) (*Dataset, error) { return s.AddSeries("w", constant[:8], SeriesOptions{Window: 8}) }},
		{"string", func(s *System) (*Dataset, error) {
			return s.AddString("q", dataset.DNA(4000, 6), StringOptions{Window: 32, Stride: 8})
		}},
		{"one-letter string", func(s *System) (*Dataset, error) {
			return s.AddString("q", bytes.Repeat([]byte("A"), 500), StringOptions{Window: 16})
		}},
		{"one-window string", func(s *System) (*Dataset, error) {
			return s.AddString("q", []byte("ACGTACGTACGTACGT"), StringOptions{Window: 16})
		}},
	} {
		sys := New()
		ds, err := tc.add(sys)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := ds.ds.Validate(sys.d); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if ds.Kind() == KindVector {
			if err := leavesCoverRows(sys, ds); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}
	}
}

// leavesCoverRows checks that every leaf MBR of a vector dataset contains
// each row of its page: Validate sees MBRs only, so a leaf built from the
// wrong rows would pass it.
func leavesCoverRows(sys *System, ds *Dataset) error {
	sess := sys.d.NewSession()
	for _, leaf := range ds.ds.Root.Leaves(nil) {
		pg, err := sess.Peek(disk.PageAddr{File: ds.ds.File, Page: leaf.Page})
		if err != nil {
			return err
		}
		for i := range pg.Flat.N {
			if row := pg.Flat.Data[i*pg.Flat.Dim : (i+1)*pg.Flat.Dim]; !leaf.MBR.Contains(row) {
				return fmt.Errorf("page %d row %d %v lies outside its leaf's %v", leaf.Page, i, row, leaf.MBR)
			}
		}
	}
	return nil
}

// TestAddVectorsParallelLowestOffender puts a malformed vector in each half
// of an input the loader checks in several ranges at once: whichever range
// finishes first, the error names the lower index, with the text of the
// inline check.
func TestAddVectorsParallelLowestOffender(t *testing.T) {
	atLeastTwoProcs(t)
	nan := math.NaN()
	const low, high = 1000, 9000
	for _, tc := range []struct {
		name      string
		low, high []float64
		want      string
	}{
		{"NaN low, short vector high", []float64{0.5, nan}, []float64{1},
			`pmjoin: indexing "hostile": rstar: vector 1000 has non-finite coordinate 1 (NaN)`},
		{"short vector low, NaN high", []float64{1}, []float64{nan, 0.5},
			`pmjoin: indexing "hostile": rstar: vector 1000 has dim 1, want 2`},
	} {
		vecs := randomVecs(10000, 2, 8)
		vecs[low], vecs[high] = tc.low, tc.high
		_, err := New().AddVectors("hostile", vecs, VectorOptions{})
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestAddVectorsWhileJoining loads vectors into one System while joins run
// on another: every load must give the tree a one-core load gives, and once
// both stop, the goroutine count must be back where it started, so no
// loader worker outlives its AddVectors.
func TestAddVectorsWhileJoining(t *testing.T) {
	vecs := randomVecs(20000, 8, 9)
	prev := runtime.GOMAXPROCS(1)
	want, err := New().AddVectors("v", vecs, VectorOptions{})
	runtime.GOMAXPROCS(max(prev, 2))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	if err != nil {
		t.Fatal(err)
	}

	joinSys, da, db := smallVecSystem(t)
	before := runtime.NumGoroutine()
	// The joins run as one task of their own pool, so that Close waits for
	// them.
	joins := pool.New(1)
	var stop atomic.Bool
	var joinErr error
	stopJoins := sync.OnceFunc(func() {
		stop.Store(true)
		joins.Close()
	})
	defer stopJoins()
	joins.Run(func() {
		for !stop.Load() {
			if _, err := joinSys.Join(da, db, Options{Method: SC, Epsilon: 0.05, BufferPages: 8, Parallelism: 2}); err != nil {
				joinErr = err
				return
			}
		}
	})
	for i := range 3 {
		got, err := New().AddVectors("v", vecs, VectorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Pages() != want.Pages() || !reflect.DeepEqual(got.root(), want.root()) {
			t.Errorf("load %d: %d pages, hierarchy equal %v; want the one-core load's %d pages",
				i, got.Pages(), reflect.DeepEqual(got.root(), want.root()), want.Pages())
		}
	}
	stopJoins()
	if joinErr != nil {
		t.Fatal(joinErr)
	}
	waitGoroutines(t, before)
	if _, err := New().AddVectors("v", vecs, VectorOptions{}); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}
