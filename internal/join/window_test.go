package join

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pmjoin/internal/buffer"
	"pmjoin/internal/cluster"
	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/predmat"
	"pmjoin/internal/sched"
)

// windowCase is a clustered join over many small clusters: a buffer of six
// pages leaves at most nine cells a cluster, so each of the window's two
// slots is refilled dozens of times in one run.
type windowCase struct {
	d        *disk.Disk
	r, s     *Dataset
	m        *predmat.Matrix
	clusters []*cluster.Cluster
	sets     []sched.PageSet
	order    []int
	j        ObjectJoiner
	// perCluster[k] is the oracle's pair count of the cluster at position k
	// of order.
	perCluster []int
	want       joinTrace
}

const windowBuffer = 6

func newWindowCase(t testing.TB, rPages, sPages []*disk.Page, j ObjectJoiner, seed int64) *windowCase {
	t.Helper()
	d := disk.New(disk.DefaultModel())
	wc := &windowCase{d: d, r: oracleDataset(t, d, "r", rPages), s: oracleDataset(t, d, "s", sPages), j: j}
	var marks []predmat.Entry
	rng := rand.New(rand.NewSource(seed))
	for r := range rPages {
		for c := range sPages {
			if rng.Intn(3) == 0 {
				marks = append(marks, predmat.Entry{R: r, C: c})
			}
		}
	}
	wc.m = predmat.FromEntries(len(rPages), len(sPages), marks)
	var err error
	if wc.clusters, err = cluster.SquareOpts(wc.m, windowBuffer, cluster.SquareOptions{}); err != nil {
		t.Fatal(err)
	}
	wc.sets = pageSetsOf(wc.r, wc.s, wc.clusters)
	wc.order = sched.RandomOrder(len(wc.clusters), seed)
	for _, ci := range wc.order {
		before := len(wc.want.pairs)
		for _, en := range wc.clusters[ci].Entries {
			wc.want.add(func(emit func(int, int)) (int64, float64) {
				return refJoinPages(j, rPages[en.R], sPages[en.C], emit)
			})
		}
		wc.perCluster = append(wc.perCluster, len(wc.want.pairs)-before)
	}
	return wc
}

// run joins the case with the given workers (0: inline) and pair cap, and
// returns the report and the collected pairs.
func (wc *windowCase) run(t testing.TB, workers, maxPairs int) (*Report, [][2]int, bool) {
	t.Helper()
	e := &Engine{Disk: wc.d, BufferSize: windowBuffer, Pairs: NewPairs(maxPairs)}
	e.Workers = workerGroup(t, workers)
	rep, err := e.Clustered(wc.r, wc.s, wc.m, wc.clusters, wc.sets, wc.order, wc.j)
	if err != nil {
		t.Fatal(err)
	}
	pairs, truncated := MergePairs([]*Pairs{e.Pairs}, maxPairs)
	return rep, pairs, truncated
}

// cutCluster returns the order position of the cluster inside which the
// first maxPairs pairs end, or -1 when the cut falls on a cluster boundary.
func (wc *windowCase) cutCluster(maxPairs int) int {
	seen := 0
	for k, n := range wc.perCluster {
		if seen < maxPairs && maxPairs < seen+n {
			return k
		}
		seen += n
	}
	return -1
}

// TestClusterWindowMatchesSerial runs the clustered executor's two-cluster
// window on four workers and inline, over many small clusters, on both
// evaluations of a run: the block kernel (8-d vectors) and the per-cell
// fallback (strings). With no cap and with caps one below, at and one above a
// pair chunk — each cutting the pair stream inside a cluster whose successor
// is dispatched before it is merged — the two must agree on every Report
// field, float bits included, on the pairs and on Truncated, and both must
// equal the serial reference loops.
func TestClusterWindowMatchesSerial(t *testing.T) {
	const nPages = 40
	rng := rand.New(rand.NewSource(21))
	vectorPages := func() []*disk.Page {
		pages := make([]*disk.Page, nPages)
		for p := range pages {
			pages[p] = randVectorPage(rng, 100*p, 6+rng.Intn(3), 8)
		}
		return pages
	}
	cases := []struct {
		name   string
		r, s   []*disk.Page
		joiner ObjectJoiner
	}{
		{"block", vectorPages(), vectorPages(), VectorJoiner{Norm: geom.L2, Eps: 1.0}},
		{"fallback", randStringPages(rng, nPages), randStringPages(rng, nPages), StringJoiner{MaxEdit: 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wc := newWindowCase(t, tc.r, tc.s, tc.joiner, 3)
			if len(wc.order) < 40 {
				t.Fatalf("%d clusters; the window is not reused enough", len(wc.order))
			}
			for _, maxPairs := range []int{1 << 30, ChunkPairs - 1, ChunkPairs, ChunkPairs + 1} {
				capped := maxPairs < len(wc.want.pairs)
				if capped {
					if k := wc.cutCluster(maxPairs); k < 0 || k+1 >= len(wc.order) {
						t.Fatalf("cap %d cuts at order position %d of %d; want inside a cluster with a successor", maxPairs, k, len(wc.order))
					}
				}
				serialRep, serialPairs, serialTrunc := wc.run(t, 0, maxPairs)
				rep, pairs, trunc := wc.run(t, 4, maxPairs)
				name := fmt.Sprintf("cap %d", maxPairs)
				if !reflect.DeepEqual(rep, serialRep) || math.Float64bits(rep.CPUJoinSeconds) != math.Float64bits(serialRep.CPUJoinSeconds) ||
					math.Float64bits(rep.IOSeconds) != math.Float64bits(serialRep.IOSeconds) {
					t.Errorf("%s: report differs:\n inline:  %+v\n workers: %+v", name, serialRep, rep)
				}
				if !reflect.DeepEqual(pairs, serialPairs) || trunc != serialTrunc {
					t.Errorf("%s: workers kept %d pairs (truncated %v), inline %d (truncated %v)", name, len(pairs), trunc, len(serialPairs), serialTrunc)
				}
				want := wc.want
				want.pairs = want.pairs[:min(maxPairs, len(want.pairs))]
				got := joinTrace{pairs: pairs, comps: rep.Comparisons, cpu: rep.CPUJoinSeconds}
				got.check(t, want)
				if rep.Results != int64(len(wc.want.pairs)) || trunc != capped {
					t.Errorf("%s: Results %d, truncated %v; oracle %d results", name, rep.Results, trunc, len(wc.want.pairs))
				}
			}
		})
	}
}

// cancellingJoiner is a fallback joiner that cancels the run's context on its
// k-th page pair and counts the calls still executing.
type cancellingJoiner struct {
	StringJoiner
	k        int64
	cancel   context.CancelFunc
	calls    atomic.Int64
	inFlight atomic.Int64
}

func (j *cancellingJoiner) JoinPages(a, b *disk.Page, emit func(int, int)) (int64, float64) {
	j.inFlight.Add(1)
	defer j.inFlight.Add(-1)
	if j.calls.Add(1) == j.k {
		j.cancel()
	}
	// Long enough that runs are still executing when the coordinator sees
	// the cancellation.
	time.Sleep(50 * time.Microsecond)
	return j.StringJoiner.JoinPages(a, b, emit)
}

// TestClusterWindowCancel cancels a run from inside the window, on a worker,
// while later clusters are being dispatched. The clustered executor must
// return context.Canceled with no comparison still executing — Run waits for
// both slots — and with no frame of its pool pinned.
func TestClusterWindowCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	wc := newWindowCase(t, randStringPages(rng, 40), randStringPages(rng, 40), StringJoiner{MaxEdit: 9}, 4)
	for _, viaRun := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		j := &cancellingJoiner{StringJoiner: StringJoiner{MaxEdit: 9}, k: 60, cancel: cancel}
		e := &Engine{Disk: wc.d, BufferSize: windowBuffer, Ctx: ctx, Workers: workerGroup(t, 4)}
		var err error
		var pool *buffer.Pool
		if viaRun {
			// The executor's own body, so the test can see the pool.
			_, err = e.Run("clustered", func(x *Exec) error {
				pool = x.Pool
				return x.joinClusters(wc.r, wc.s, wc.m, wc.clusters, wc.sets, wc.order, j)
			})
		} else {
			_, err = e.Clustered(wc.r, wc.s, wc.m, wc.clusters, wc.sets, wc.order, j)
		}
		inFlight := j.inFlight.Load()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if inFlight != 0 {
			t.Errorf("%d comparisons still executing after the run returned", inFlight)
		}
		if calls := j.calls.Load(); calls >= int64(wc.m.Marked()) {
			t.Errorf("%d page pairs compared; the cancellation did not stop the run early", calls)
		}
		if pool != nil {
			if err := pool.Flush(); err != nil {
				t.Errorf("after cancellation: %v", err)
			}
		}
	}
}
