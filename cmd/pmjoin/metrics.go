package main

import (
	"fmt"
	"time"

	"pmjoin"
	"pmjoin/internal/metrics"
)

// timeUnit picks a rounding unit so wall columns stay short: microseconds
// under a millisecond, otherwise tens of microseconds.
func timeUnit(d time.Duration) time.Duration {
	if d < time.Millisecond {
		return time.Microsecond
	}
	return 10 * time.Microsecond
}

// printMetrics renders the phase-scoped snapshot as a human table: one row
// per phase with its wall clock and I/O deltas, then totals, queue pressure
// and the trace (if recorded).
func printMetrics(m *metrics.Metrics) {
	fmt.Printf("\nmetrics (wall %v):\n", m.Wall)
	fmt.Printf("  %-8s %12s %8s %8s %8s %8s %8s\n",
		"phase", "wall", "reads", "seeks", "writes", "hits", "misses")
	for p := metrics.Phase(0); p < metrics.NumPhases; p++ {
		ps := m.Phases[p]
		if ps == (metrics.PhaseStats{}) {
			continue
		}
		fmt.Printf("  %-8s %12v %8d %8d %8d %8d %8d\n",
			p, ps.Wall.Round(timeUnit(ps.Wall)),
			ps.Disk.Reads, ps.Disk.Seeks+ps.Disk.WriteSeeks, ps.Disk.Writes,
			ps.Buffer.Hits, ps.Buffer.Misses)
	}
	fmt.Printf("  %-8s %12v %8d %8d %8d %8d %8d\n",
		"total", m.Wall.Round(timeUnit(m.Wall)),
		m.Disk.Reads, m.Disk.Seeks+m.Disk.WriteSeeks, m.Disk.Writes,
		m.Buffer.Hits, m.Buffer.Misses)
	if m.QueueHighWater > 0 {
		fmt.Printf("  worker queue high water: %d tasks\n", m.QueueHighWater)
	}
	if len(m.Events) > 0 {
		fmt.Printf("  trace (%d events, %d dropped):\n", len(m.Events), m.EventsDropped)
		for _, ev := range m.Events {
			fmt.Printf("    %v\n", ev)
		}
	}
}

// printPredictedVsMeasured renders Explain's per-cluster read prediction next
// to the run's measured pinned-set turnover, in schedule order, then a
// one-line Lemma 4 verdict: the clusters whose reads differ from the
// prediction and the reads beyond it, both 0 when the plan holds. A sharded
// run follows each shard's own schedule, so it is compared shard by shard.
func printPredictedVsMeasured(plan *pmjoin.Plan, m *metrics.Metrics) {
	if len(plan.Shards) > 0 && len(plan.Shards) == len(m.Shards) {
		fmt.Printf("  per-shard reads, predicted vs measured:\n")
		for i, sh := range plan.Shards {
			fmt.Printf("    shard %d: %d predicted, %d read\n", i, sh.PredictedReads, m.Shards[i].Buffer.Misses)
		}
		return
	}
	if len(plan.ClusterIO) == 0 || len(plan.ClusterIO) != len(m.Clusters) {
		return
	}
	fmt.Printf("  per-cluster I/O, predicted vs measured:\n")
	fmt.Printf("    %-8s %8s %10s %10s %8s\n", "cluster", "pages", "predicted", "fetched", "reused")
	mismatch, excess := 0, int64(0)
	for i, pc := range plan.ClusterIO {
		mc := m.Clusters[i]
		fmt.Printf("    %-8d %8d %10d %10d %8d\n",
			pc.Cluster, pc.Pages, pc.Reads, mc.Fetched, mc.Reused)
		if mc.Fetched != int64(pc.Reads) {
			mismatch++
		}
		excess += mc.Fetched - int64(pc.Reads)
	}
	fmt.Printf("  Lemma 4: %d of %d clusters mismatch the prediction, %d excess reads\n",
		mismatch, len(plan.ClusterIO), excess)
}
