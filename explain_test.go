package pmjoin

import (
	"strings"
	"testing"
)

func TestExplainBounds(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	const eps = 0.1
	plan, err := sys.Explain(da, db, Options{Epsilon: eps, BufferPages: 12})
	if err != nil {
		t.Fatal(err)
	}
	if plan.MarkedEntries == 0 || plan.Clusters == 0 {
		t.Fatalf("empty plan: %+v", plan)
	}
	if plan.MaxClusterPages > 12 {
		t.Fatalf("cluster pages %d exceed buffer", plan.MaxClusterPages)
	}
	if plan.RowPages != da.Pages() || plan.ColPages != db.Pages() {
		t.Fatal("page counts")
	}
	if !strings.Contains(plan.String(), "Lemma 1") {
		t.Fatal("String output")
	}

	// The analytic counts must bracket the executed runs.
	nlj, err := sys.Join(da, db, Options{Method: NLJ, Epsilon: eps, BufferPages: 12})
	if err != nil {
		t.Fatal(err)
	}
	if nlj.Report.PageReads != plan.NLJPageReads {
		t.Fatalf("NLJ reads %d != plan %d", nlj.Report.PageReads, plan.NLJPageReads)
	}
	sc, err := sys.Join(da, db, Options{Method: SC, Epsilon: eps, BufferPages: 12})
	if err != nil {
		t.Fatal(err)
	}
	// The executed clustered join benefits from buffer reuse on top of the
	// schedule, so its reads are at most the plan's un-reused count.
	if sc.Report.PageReads > plan.ClusteredPageReads {
		t.Fatalf("SC reads %d > plan %d", sc.Report.PageReads, plan.ClusteredPageReads)
	}
	// And the schedule savings must not exceed what reuse can deliver.
	if plan.ScheduleSavings < 0 || plan.ScheduleSavings > plan.ClusteredPageReads {
		t.Fatalf("savings %d out of range", plan.ScheduleSavings)
	}
}

func TestExplainLemma1HoldsForPMNLJ(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	const eps = 0.1
	for _, b := range []int{8, 16, 64} {
		plan, err := sys.Explain(da, db, Options{Epsilon: eps, BufferPages: b})
		if err != nil {
			t.Fatal(err)
		}
		pm, err := sys.Join(da, db, Options{Method: PMNLJ, Epsilon: eps, BufferPages: b})
		if err != nil {
			t.Fatal(err)
		}
		// Lemma 1 bounds a pm-NLJ without buffer reuse; the LRU buffer can
		// only reduce reads, so the executed count is at most the bound
		// plus the marked-row fetches.
		if pm.Report.PageReads > plan.PMNLJLowerBound+int64(plan.MarkedRows) {
			t.Fatalf("B=%d: pm-NLJ reads %d above Lemma 1 envelope %d",
				b, pm.Report.PageReads, plan.PMNLJLowerBound+int64(plan.MarkedRows))
		}
	}
}

func TestExplainValidation(t *testing.T) {
	sys, da, _ := smallVecSystem(t)
	other := New()
	dc, err := other.AddVectors("c", randomVecs(64, 2, 30), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Explain(da, dc, Options{Epsilon: 0.1, BufferPages: 8}); err == nil {
		t.Fatal("cross-system explain accepted")
	}
	if _, err := sys.Explain(da, da, Options{Epsilon: 0.1, BufferPages: 2}); err == nil {
		t.Fatal("tiny buffer accepted")
	}
}

// TestExplainOrderIsExecutedOrder: Explain renders the plan a join runs, so
// the plan's cluster order is the run's, position for position, unsharded
// and at one shard.
func TestExplainOrderIsExecutedOrder(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	for _, shards := range []int{0, 1} {
		opt := Options{Method: SC, Epsilon: 0.1, BufferPages: 12,
			Sharding: ShardingOptions{Shards: shards}}
		plan, err := sys.Explain(da, db, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Join(da, db, opt)
		if err != nil {
			t.Fatal(err)
		}
		ran := res.Metrics.Clusters
		if len(plan.ClusterIO) < 2 || len(plan.ClusterIO) != len(ran) {
			t.Fatalf("shards=%d: plan orders %d clusters, run visited %d", shards, len(plan.ClusterIO), len(ran))
		}
		for i, c := range plan.ClusterIO {
			if c.Cluster != ran[i].Cluster {
				t.Fatalf("shards=%d position %d: plan runs cluster %d, run visited %d", shards, i, c.Cluster, ran[i].Cluster)
			}
		}
	}
}
