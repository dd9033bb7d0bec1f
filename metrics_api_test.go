package pmjoin

import (
	"reflect"
	"testing"

	"pmjoin/internal/buffer"
	"pmjoin/internal/disk"
	"pmjoin/internal/metrics"
)

// planFields strips the metrics snapshot from a plan, leaving exactly the
// fields the determinism contract covers.
func planFields(p *Plan) Plan {
	c := *p
	c.Metrics = nil
	return c
}

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
// Report, Pairs and Plan are bit-for-bit identical with metrics and tracing
// enabled vs. disabled, and at Parallelism 1 vs. >1.
func TestMetricsDeterminism(t *testing.T) {
	sys, da, db, opt := metricsWorkload(t)

	base, err := sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if base.Count() == 0 {
		t.Fatal("workload has no results")
	}
	if base.Metrics != nil {
		t.Fatal("Metrics collected without Options.Metrics")
	}
	basePlan, err := sys.Explain(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if basePlan.Metrics != nil {
		t.Fatal("Plan.Metrics collected without Options.Metrics")
	}

	for _, tc := range []struct {
		name string
		mod  func(*Options)
	}{
		{"metrics", func(o *Options) { o.Metrics = true }},
		{"trace", func(o *Options) { o.Trace = true }},
		{"metrics-parallel", func(o *Options) { o.Metrics = true; o.Parallelism = 4 }},
		{"trace-parallel", func(o *Options) { o.Trace = true; o.Parallelism = 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := opt
			tc.mod(&o)
			res, err := sys.Join(da, db, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics == nil {
				t.Fatal("Options.Metrics set but Result.Metrics is nil")
			}
			if got, want := deterministicFields(res), deterministicFields(base); !reflect.DeepEqual(got, want) {
				t.Errorf("%s result differs from baseline:\n base: %+v\n got:  %+v", tc.name, want, got)
			}
			plan, err := sys.Explain(da, db, o)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Metrics == nil {
				t.Fatal("Options.Metrics set but Plan.Metrics is nil")
			}
			if got, want := planFields(plan), planFields(basePlan); !reflect.DeepEqual(got, want) {
				t.Errorf("%s plan differs from baseline:\n base: %+v\n got:  %+v", tc.name, want, got)
			}
		})
	}
}

// TestMetricsPhaseSumsMatchReport asserts the snapshot's accounting identity
// against the run's own Report: the per-phase disk deltas sum to the run's
// total disk.Stats, and the totals agree with the Report's counters.
func TestMetricsPhaseSumsMatchReport(t *testing.T) {
	sys, da, db, opt := metricsWorkload(t)
	opt.Metrics = true
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
	opt.Metrics = true
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
	opt.Metrics = true
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
// arrive typed and ordered, and a small TraceCapacity bounds the ring while
// Seq still exposes the run's full event count.
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
	// Re-run at full capacity for the steady-state event count: the first run
	// built the prediction matrix (two phase events the cached runs lack).
	res, err = sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	full := int64(len(res.Metrics.Events))
	if res.Metrics.EventsDropped != 0 {
		t.Fatalf("default capacity dropped %d events", res.Metrics.EventsDropped)
	}

	// A tiny ring keeps only the newest events and reports the overwrites.
	opt.TraceCapacity = 8
	res, err = sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	m = res.Metrics
	if len(m.Events) != 8 {
		t.Fatalf("ring of 8 returned %d events", len(m.Events))
	}
	if m.EventsDropped != full-8 {
		t.Errorf("ring dropped %d events, want %d", m.EventsDropped, full-8)
	}
	if last := m.Events[7]; last.Seq != full-1 {
		t.Errorf("newest event Seq = %d, want %d", last.Seq, full-1)
	}
}
