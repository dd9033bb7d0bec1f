package pmjoin

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pmjoin/internal/buffer"
	"pmjoin/internal/disk"
	"pmjoin/internal/metrics"
)

// metricsWorkload is a vector SC workload big enough to produce several
// clusters and nontrivial buffer traffic.
func metricsWorkload(t *testing.T) (*System, *Dataset, *Dataset, Options) {
	t.Helper()
	sys := NewSystem(DiskModel{PageBytes: 256})
	da, err := sys.AddVectors("a", randomVecs(400, 2, 1), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sys.AddVectors("b", randomVecs(300, 2, 2), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sys, da, db, Options{
		Method: SC, Epsilon: 0.05, BufferPages: 16,
		CollectPairs: true, Parallelism: 1,
	}
}

// TestMetricsDeterminism is the acceptance contract of the metrics layer:
// Report, Pairs and Plan are bit-for-bit identical with tracing on vs. off,
// and at Parallelism 1 vs. 4.
func TestMetricsDeterminism(t *testing.T) {
	sys, da, db, opt := metricsWorkload(t)

	base, err := sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if base.Count() == 0 {
		t.Fatal("workload has no results")
	}
	basePlan, err := sys.Explain(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		mod  func(*Options)
	}{
		{"trace", func(o *Options) { o.Trace = true }},
		{"parallel", func(o *Options) { o.Parallelism = 4 }},
		{"trace-parallel", func(o *Options) { o.Trace = true; o.Parallelism = 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := opt
			tc.mod(&o)
			res, err := sys.Join(da, db, o)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := deterministicFields(res), deterministicFields(base); !reflect.DeepEqual(got, want) {
				t.Errorf("%s result differs from baseline:\n base: %+v\n got:  %+v", tc.name, want, got)
			}
			plan, err := sys.Explain(da, db, o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plan, basePlan) {
				t.Errorf("%s plan differs from baseline:\n base: %+v\n got:  %+v", tc.name, basePlan, plan)
			}
		})
	}
}

// TestMetricsPhaseSumsMatchReport asserts the snapshot's accounting identity
// against the run's own Report: the per-phase disk deltas sum to the run's
// total disk.Stats, and the totals agree with the Report's counters.
func TestMetricsPhaseSumsMatchReport(t *testing.T) {
	sys, da, db, opt := metricsWorkload(t)
	res, err := sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics

	var disks disk.Stats
	var bufs buffer.Stats
	for _, ps := range m.Phases {
		disks = disks.Add(ps.Disk)
		bufs = bufs.Add(ps.Buffer)
	}
	if disks != m.Disk {
		t.Errorf("phase disk deltas sum to %+v, total is %+v", disks, m.Disk)
	}
	if bufs != m.Buffer {
		t.Errorf("phase buffer deltas sum to %+v, total is %+v", bufs, m.Buffer)
	}
	if m.Disk.Reads != res.Report.PageReads {
		t.Errorf("Metrics.Disk.Reads = %d, Report.PageReads = %d", m.Disk.Reads, res.Report.PageReads)
	}
	if got := m.Disk.Seeks + m.Disk.WriteSeeks; got != res.Report.Seeks {
		t.Errorf("Metrics seeks = %d, Report.Seeks = %d", got, res.Report.Seeks)
	}
	if m.Buffer.Hits != res.Report.Hits || m.Buffer.Misses != res.Report.Misses {
		t.Errorf("Metrics.Buffer = %+v, Report hits/misses = %d/%d",
			m.Buffer, res.Report.Hits, res.Report.Misses)
	}
	// SC issues its reads inside the executor: the join phase must own every
	// read and the idle phases none.
	if m.Phases[metrics.PhaseJoin].Disk.Reads != m.Disk.Reads {
		t.Errorf("join phase owns %d of %d reads",
			m.Phases[metrics.PhaseJoin].Disk.Reads, m.Disk.Reads)
	}
	if w := m.Phases[metrics.PhaseMatrix].Wall + m.Phases[metrics.PhaseCluster].Wall; w <= 0 {
		t.Errorf("matrix+cluster phases recorded no wall time")
	}
}

// TestMetricsPredictedVsMeasured is Lemma 4 made exact: Explain's
// per-cluster read prediction equals the join's measured per-cluster reads,
// cluster for cluster, for cross and self joins under both replacement
// policies, with the event trace on and off, over the simulator and the file
// store. The run visits the plan's clusters in the plan's order and pins
// exactly the planned pages, every buffer miss belongs to one cluster, and the
// total stays within the paper's bound: the pages minus the schedule's
// savings. Under the file store each cluster's physical reads are exactly its
// fetches. Recording the trace must not move a single read.
func TestMetricsPredictedVsMeasured(t *testing.T) {
	sys, da, db, opt := metricsWorkload(t)
	// A 4-d join whose older survivors decide reads: in it, recency touches
	// the replay does not make (a per-entry access after the pin, say) show
	// up as mispredicted clusters.
	a4, err := sys.AddVectors("a4", randomVecs(400, 4, 61), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b4, err := sys.AddVectors("b4", randomVecs(300, 4, 62), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The landsat shape in small: 8-d clusters filling at least 90 % of B.
	a8, err := sys.AddVectors("a8", randomVecs(400, 8, 61), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b8, err := sys.AddVectors("b8", randomVecs(300, 8, 62), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.UseFileStore(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer sys.CloseStore()
	opt4 := opt
	opt4.Epsilon, opt4.BufferPages = 0.3, 20
	opt8 := opt
	opt8.Epsilon, opt8.BufferPages = 0.5, 20
	// Self joins exercise the page-set dedup: a cluster's row and col pages
	// come from one file, so the plan must count shared frames once to line
	// up with the executor's pinned sets.
	for _, join := range []struct {
		name string
		a, b *Dataset
		opt  Options
	}{
		{"cross", da, db, opt}, {"self", da, da, opt}, {"cross-4d", a4, b4, opt4},
		{"vector-full-clusters", a8, b8, opt8},
	} {
		t.Run(join.name, func(t *testing.T) {
			for _, policy := range []ReplacementPolicy{LRU, FIFO} {
				for _, trace := range []bool{true, false} {
					for _, storage := range []StorageMode{StorageSim, StorageFile} {
						o := join.opt
						o.Policy, o.Trace, o.Storage = policy, trace, storage
						name := policy.String() + "/" + onOff(trace) + "/" + storage.String()
						t.Run(name, func(t *testing.T) {
							plan := testPredictedVsMeasured(t, sys, join.a, join.b, o)
							if join.name != "vector-full-clusters" {
								return
							}
							pages := 0
							for _, c := range plan.ClusterIO {
								pages += c.Pages
							}
							if fill := float64(pages) / float64(len(plan.ClusterIO)*o.BufferPages); fill < 0.9 {
								t.Errorf("clusters fill %.2f of the buffer, want >= 0.9", fill)
							}
						})
					}
				}
			}
		})
	}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func testPredictedVsMeasured(t *testing.T, sys *System, da, db *Dataset, opt Options) *Plan {
	plan, err := sys.Explain(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics

	if len(plan.ClusterIO) < 2 {
		t.Fatalf("plan has %d clusters; the schedule needs at least 2", len(plan.ClusterIO))
	}
	if len(plan.ClusterIO) != len(m.Clusters) {
		t.Fatalf("plan schedules %d clusters, run measured %d", len(plan.ClusterIO), len(m.Clusters))
	}
	var predicted, fetched int64
	for i, pc := range plan.ClusterIO {
		mc := m.Clusters[i]
		if pc.Cluster != mc.Cluster {
			t.Fatalf("schedule position %d: plan visits cluster %d, run visited %d", i, pc.Cluster, mc.Cluster)
		}
		if pc.Pages != mc.Pinned {
			t.Errorf("cluster %d: plan pins %d pages, run pinned %d", pc.Cluster, pc.Pages, mc.Pinned)
		}
		if mc.Fetched+mc.Reused != int64(mc.Pinned) {
			t.Errorf("cluster %d: fetched %d + reused %d != pinned %d",
				mc.Cluster, mc.Fetched, mc.Reused, mc.Pinned)
		}
		if int64(pc.Reads) != mc.Fetched {
			t.Errorf("position %d, cluster %d: plan predicts %d reads, run fetched %d",
				i, pc.Cluster, pc.Reads, mc.Fetched)
		}
		if opt.Storage == StorageFile && mc.Measured.Reads != mc.Fetched {
			t.Errorf("cluster %d: %d file reads in its window, %d fetched",
				mc.Cluster, mc.Measured.Reads, mc.Fetched)
		}
		predicted += int64(pc.Reads)
		fetched += mc.Fetched
	}
	// SC reads pages only through cluster pins, so the per-cluster fetches
	// partition the run's misses.
	if fetched != m.Buffer.Misses {
		t.Errorf("per-cluster fetches sum to %d, run missed %d", fetched, m.Buffer.Misses)
	}
	if bound := plan.ClusteredPageReads - plan.ScheduleSavings; predicted > bound {
		t.Errorf("plan predicts %d reads, above Lemma 4's bound %d", predicted, bound)
	}
	return plan
}

// TestShardPredictedVsMeasured holds the sharding plan to the same standard:
// each shard's run misses exactly its planned PredictedReads, and the cut's
// lost pages are the shards' predictions minus the unsharded plan's.
func TestShardPredictedVsMeasured(t *testing.T) {
	sys, da, db, opt := metricsWorkload(t)
	for _, shards := range []int{2, 3} {
		for _, policy := range []ReplacementPolicy{LRU, FIFO} {
			o := opt
			o.Policy, o.Sharding = policy, ShardingOptions{Shards: shards, Workers: 2}
			plan, err := sys.Explain(da, db, o)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Join(da, db, o)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics.Shards) != len(plan.Shards) {
				t.Fatalf("shards=%d %v: plan has %d shards, run %d", shards, policy, len(plan.Shards), len(res.Metrics.Shards))
			}
			var sharded, unsharded int64
			for i, sh := range plan.Shards {
				if got := res.Metrics.Shards[i].Buffer.Misses; got != sh.PredictedReads {
					t.Errorf("shards=%d %v: shard %d predicted %d reads, missed %d", shards, policy, i, sh.PredictedReads, got)
				}
				sharded += sh.PredictedReads
			}
			for _, c := range plan.ClusterIO {
				unsharded += int64(c.Reads)
			}
			if plan.CutLostPages != sharded-unsharded {
				t.Errorf("shards=%d %v: CutLostPages %d, want %d - %d", shards, policy, plan.CutLostPages, sharded, unsharded)
			}
		}
	}
}

// TestMetricsTraceThroughAPI exercises the trace ring end to end: events
// arrive typed and ordered, the default ring holds the whole run, and the
// event count is the same on a warm rerun. The ring's overflow is
// internal/metrics' TestTraceRingBounds.
func TestMetricsTraceThroughAPI(t *testing.T) {
	sys, da, db, opt := metricsWorkload(t)
	opt.Trace = true
	res, err := sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if len(m.Events) == 0 {
		t.Fatal("trace enabled but no events recorded")
	}
	if m.EventsDropped != 0 {
		t.Fatalf("default capacity dropped %d events", m.EventsDropped)
	}
	for i := 1; i < len(m.Events); i++ {
		if m.Events[i].Seq != m.Events[i-1].Seq+1 {
			t.Fatalf("event %d: Seq %d follows %d", i, m.Events[i].Seq, m.Events[i-1].Seq)
		}
	}
	var starts, ends, seeks int
	for _, ev := range m.Events {
		switch ev.Kind {
		case metrics.EvClusterStart:
			starts++
		case metrics.EvClusterEnd:
			ends++
		case metrics.EvSeek:
			seeks++
		}
	}
	if starts != len(m.Clusters) || ends != len(m.Clusters) {
		t.Errorf("trace has %d cluster starts / %d ends for %d clusters", starts, ends, len(m.Clusters))
	}
	if int64(seeks) != m.Disk.Seeks+m.Disk.WriteSeeks {
		t.Errorf("trace has %d seek events, disk counted %d", seeks, m.Disk.Seeks+m.Disk.WriteSeeks)
	}
	// The first run built the prediction matrix: its two phase events are
	// all a warm rerun lacks.
	res, err = sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm := res.Metrics; warm.EventsDropped != 0 || len(warm.Events) != len(m.Events)-2 {
		t.Errorf("warm rerun recorded %d events (%d dropped), want %d", len(warm.Events), warm.EventsDropped, len(m.Events)-2)
	}
}

// TestBatchCountersAlwaysOn: the block-kernel counters of ExecStats ride the
// metrics snapshot, which every join collects, so a default-option cross
// join on the batch kernel reports them, equal to a traced run's.
func TestBatchCountersAlwaysOn(t *testing.T) {
	sys, da, db, _ := metricsWorkload(t)
	opt := Options{Method: SC, Epsilon: 0.05, BufferPages: 16}
	res, err := sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec.BatchCells <= 0 || res.Exec.BatchRows <= 0 {
		t.Fatalf("default options: BatchCells %d, BatchRows %d; want both > 0", res.Exec.BatchCells, res.Exec.BatchRows)
	}
	opt.Trace = true
	traced, err := sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := [3]int{res.Exec.BatchClusters, res.Exec.BatchCells, res.Exec.BatchRows}
	want := [3]int{traced.Exec.BatchClusters, traced.Exec.BatchCells, traced.Exec.BatchRows}
	if got != want {
		t.Errorf("batch clusters/cells/rows = %v, traced run %v", got, want)
	}
}

// cancelAfter is a context whose Err is nil for its first n calls and
// context.Canceled from then on: a cancel that lands at a chosen ctx check,
// whatever the host's speed.
type cancelAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

func newCancelAfter(n int64) *cancelAfter {
	return &cancelAfter{Context: context.Background(), n: n}
}

// checkWallsArePhases fails unless ExecStats' three walls equal the
// snapshot's matrix, cluster and join phase walls.
func checkWallsArePhases(t *testing.T, res *Result) {
	t.Helper()
	if res == nil || res.Metrics == nil {
		t.Fatal("no metrics snapshot")
	}
	ph := &res.Metrics.Phases
	for _, w := range []struct {
		name string
		got  time.Duration
		p    metrics.Phase
	}{
		{"MatrixWall", res.Exec.MatrixWall, metrics.PhaseMatrix},
		{"PreprocessWall", res.Exec.PreprocessWall, metrics.PhaseCluster},
		{"JoinWall", res.Exec.JoinWall, metrics.PhaseJoin},
	} {
		if w.got != ph[w.p].Wall {
			t.Errorf("Exec.%s = %v, the %v phase's wall is %v", w.name, w.got, w.p, ph[w.p].Wall)
		}
	}
}

// TestExecWallsAreMetricsPhases: ExecStats' walls are views of the metrics
// snapshot, so on an unsharded and a sharded join and on a cancelled sharded
// one they equal its matrix, cluster and join phases exactly. A sharded join
// charges its shards and their merge to the top-level join phase.
func TestExecWallsAreMetricsPhases(t *testing.T) {
	sys, da, db, opt := metricsWorkload(t)
	for i, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			o := opt
			o.Epsilon += 0.001 * float64(i+1) // a fresh matrix key: this join builds it
			o.Sharding.Shards = shards
			res, err := sys.Join(da, db, o)
			if err != nil {
				t.Fatal(err)
			}
			checkWallsArePhases(t, res)
			if res.Exec.MatrixWall <= 0 || res.Exec.PreprocessWall <= 0 || res.Exec.JoinWall <= 0 {
				t.Errorf("walls matrix %v, preprocess %v, join %v; want all > 0",
					res.Exec.MatrixWall, res.Exec.PreprocessWall, res.Exec.JoinWall)
			}
			if got := len(res.Metrics.Shards); got != shards {
				t.Errorf("%d shard snapshots, want %d", got, shards)
			}
			for s, sn := range res.Metrics.Shards {
				if sn.Phases[metrics.PhaseJoin].Wall <= 0 {
					t.Errorf("shard %d's join phase is empty", s)
				}
			}
		})
	}
	t.Run("cancelled", func(t *testing.T) {
		// JoinContext's own check, and planning's two, pass; the shards see
		// the cancel.
		o := opt
		o.Epsilon += 0.01
		o.Sharding.Shards = 2
		res, err := sys.JoinContext(newCancelAfter(3), da, db, o)
		if !errors.Is(err, context.Canceled) || res == nil || !res.Exec.Cancelled {
			t.Fatalf("JoinContext = %+v, %v; want a cancelled result", res, err)
		}
		checkWallsArePhases(t, res)
		if res.Exec.MatrixWall <= 0 || res.Exec.PreprocessWall <= 0 || res.Exec.JoinWall <= 0 {
			t.Errorf("walls matrix %v, preprocess %v, join %v; want all > 0",
				res.Exec.MatrixWall, res.Exec.PreprocessWall, res.Exec.JoinWall)
		}
	})
}

// TestPlanningHonoursCancel: a join cancelled while its matrix is built
// returns after the build, with the snapshot of what ran: the matrix phase,
// and no cluster phase. Explain stops at the same check.
func TestPlanningHonoursCancel(t *testing.T) {
	sys, da, db, opt := metricsWorkload(t)
	opt.Trace = true
	opt.Epsilon += 0.02 // a fresh matrix key: this join builds it
	res, err := sys.JoinContext(newCancelAfter(1), da, db, opt)
	if !errors.Is(err, context.Canceled) || res == nil || !res.Exec.Cancelled {
		t.Fatalf("JoinContext = %+v, %v; want a cancelled result", res, err)
	}
	checkWallsArePhases(t, res)
	m := res.Metrics
	if m.Phases[metrics.PhaseMatrix].Wall <= 0 {
		t.Error("the matrix was not built")
	}
	if m.Phases[metrics.PhaseCluster].Wall != 0 || m.Phases[metrics.PhaseJoin].Wall != 0 {
		t.Errorf("cluster phase %v, join phase %v after a cancel during the build; want 0",
			m.Phases[metrics.PhaseCluster].Wall, m.Phases[metrics.PhaseJoin].Wall)
	}
	for _, ev := range m.Events {
		if ev.Kind == metrics.EvPhaseStart && ev.Phase != metrics.PhaseMatrix {
			t.Errorf("the %v phase opened after the cancel", ev.Phase)
		}
	}
	opt.Epsilon += 0.01
	if _, err := sys.ExplainContext(newCancelAfter(1), da, db, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("ExplainContext = %v, want context.Canceled", err)
	}
}
