package join

import (
	"reflect"
	"testing"

	"pmjoin/internal/cluster"
	"pmjoin/internal/geom"
	"pmjoin/internal/pool"
)

// workerGroup returns a group of up to n tasks in flight on a pool of n
// workers, closed when t ends; nil, inline, when n < 2.
func workerGroup(t testing.TB, n int) *pool.Group {
	p := pool.New(n)
	t.Cleanup(p.Close)
	return p.Group(n)
}

// runEngine executes one method with the given worker count (1 = serial)
// and returns the report plus the emitted pair sequence.
func runEngine(t *testing.T, method string, workers int, seed int64) (*Report, [][2]int) {
	t.Helper()
	d, da, db, _, eps := testSetup(t, seed, 400, 300)
	e := &Engine{Disk: d, BufferSize: 16, Pairs: NewPairs(1 << 30)}
	e.Workers = workerGroup(t, workers)
	j := VectorJoiner{Norm: geom.L2, Eps: eps}
	var rep *Report
	var err error
	switch method {
	case "NLJ":
		rep, err = e.NLJ(da, db, j)
	case "PMNLJ":
		rep, err = e.PMNLJ(da, db, buildMatrix(t, da, db, eps), j)
	case "SC":
		m := buildMatrix(t, da, db, eps)
		clusters, cerr := cluster.SquareOpts(m, e.BufferSize, cluster.SquareOptions{})
		if cerr != nil {
			t.Fatal(cerr)
		}
		rep, err = runScheduled(e, da, db, m, clusters, j)
	default:
		t.Fatalf("unknown method %q", method)
	}
	if err != nil {
		t.Fatal(err)
	}
	pairs, _ := MergePairs([]*Pairs{e.Pairs}, 1<<30)
	return rep, pairs
}

// TestParallelReportsIdentical is the engine-level determinism contract:
// for every executor that consults Workers, the report and the emitted pair
// sequence must be byte-for-byte identical at any worker count.
func TestParallelReportsIdentical(t *testing.T) {
	for _, method := range []string{"NLJ", "PMNLJ", "SC"} {
		t.Run(method, func(t *testing.T) {
			baseRep, basePairs := runEngine(t, method, 1, 7)
			for _, workers := range []int{2, 4, 7} {
				rep, pairs := runEngine(t, method, workers, 7)
				if !reflect.DeepEqual(rep, baseRep) {
					t.Errorf("workers=%d report differs:\n serial:   %+v\n parallel: %+v", workers, baseRep, rep)
				}
				if !reflect.DeepEqual(pairs, basePairs) {
					t.Errorf("workers=%d pair sequence differs (len %d vs %d)", workers, len(pairs), len(basePairs))
				}
			}
		})
	}
}
