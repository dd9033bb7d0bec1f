package shard

import (
	"context"

	"pmjoin/internal/buffer"
	"pmjoin/internal/cluster"
	"pmjoin/internal/disk"
	"pmjoin/internal/join"
	"pmjoin/internal/metrics"
	"pmjoin/internal/predmat"
)

// Task names one shard's work: which clusters (by creation index) it owns.
// Everything else a shard needs — datasets, matrix, options — is carried by
// the Runner, so a Task is small enough to put on the wire.
type Task struct {
	Shard    int
	Clusters []int
}

// Result is one shard's outcome. Report, Pairs and Truncated are
// deterministic functions of the Task (each shard runs over a cold disk
// session and a private buffer pool, so its numbers are what a solo run over
// its clusters would produce); Metrics and Timeline are observational.
type Result struct {
	Shard  int
	Report *join.Report
	// Pairs holds the shard's collected result pairs (nil unless the runner
	// collects pairs), in the shard executor's deterministic emission order.
	Pairs [][2]int
	// Truncated reports the shard hit its local pair cap.
	Truncated bool
	// Metrics is the shard's own phase-scoped snapshot (nil unless enabled).
	Metrics *metrics.Metrics
	// Timeline is the shard's modeled overlapped-pipeline clock.
	Timeline disk.TimelineStats
	// Measured is the shard's physical backend read account (zero under the
	// simulator); observational, like Timeline.
	Measured disk.Measured
}

// Runner executes one shard of a plan. RunShard must be safe for concurrent
// calls with distinct tasks: the coordinator fans tasks out to parallel
// workers. The in-process implementation is LocalRunner; a network transport
// implementing the same interface is a drop-in replacement (marshal the Task,
// run remotely, unmarshal the Result).
type Runner interface {
	RunShard(ctx context.Context, t Task) (*Result, error)
}

// LocalRunner runs shards in process: each RunShard builds a fresh
// join.Engine over the shared simulated disk, so the shard gets its own cold
// disk session and private buffer pool (via Engine.Run) and reuses the
// pipelined clustered executor unchanged over its cluster subset.
type LocalRunner struct {
	// Execution environment, shared across shards.
	Disk       *disk.Disk
	BufferSize int
	Policy     buffer.Policy
	// Workers is the shared comparison pool (nil = inline). Shards must not
	// submit blocking shard-level work here — they only feed it page-pair
	// comparison tasks, exactly as the unsharded executor does — so sharing
	// one pool across concurrent shards cannot deadlock.
	Workers *join.WorkerPool
	// Shared, when non-nil, is the service-wide concurrent frame cache every
	// shard's engine participates in (see join.Engine.Shared); per-shard
	// Reports stay solo-run pure either way.
	Shared *buffer.SharedPool
	// Pipeline knobs, inherited by every shard's engine.
	Prefetch      bool
	PrefetchDepth int
	// Backend, when non-nil, is the physical page source every shard's
	// engine reads through (see join.Engine.Backend); per-shard Reports are
	// bit-identical either way, only Result.Measured differs.
	Backend disk.Backend
	// Readers is the shared background reader pool for prefetch fetches
	// (nil = synchronous). Reader tasks are plain backend fetches that never
	// submit further work, so sharing one pool across shards cannot deadlock.
	Readers *join.WorkerPool

	// The join being sharded.
	R, S     *join.Dataset
	Matrix   *predmat.Matrix
	Clusters []*cluster.Cluster
	Joiner   join.ObjectJoiner
	Order    join.ClusterOrder
	Seed     int64
	// PreprocessSeconds is the modeled clustering cost; it is charged to
	// shard 0 only, so the merged report counts it once (each shard's own
	// schedule-construction cost accrues per shard, as it is really paid).
	PreprocessSeconds float64

	// Pair collection. Each shard collects up to MaxPairs locally; the
	// coordinator's merge re-caps globally.
	CollectPairs bool
	MaxPairs     int

	// Metrics enables a per-shard collector whose snapshot lands on
	// Result.Metrics (outside the determinism contract, like everywhere else).
	Metrics       bool
	MetricsConfig metrics.Config
}

// RunShard executes one shard. The engine's Run scope gives the shard its
// cold session and private pool; the timeline and optional collector are
// per-shard, so nothing observational is shared across concurrent shards.
func (r *LocalRunner) RunShard(ctx context.Context, t Task) (*Result, error) {
	var mc *metrics.Collector // nil when disabled: every hook no-ops
	if r.Metrics {
		mc = metrics.New(r.MetricsConfig)
	}
	tl := disk.NewTimeline()
	out := &Result{Shard: t.Shard}
	eng := &join.Engine{
		Disk:          r.Disk,
		BufferSize:    r.BufferSize,
		Policy:        r.Policy,
		Workers:       r.Workers,
		Ctx:           ctx,
		Metrics:       mc,
		Shared:        r.Shared,
		Prefetch:      r.Prefetch,
		PrefetchDepth: r.PrefetchDepth,
		Backend:       r.Backend,
		Readers:       r.Readers,
		Timeline:      tl,
	}
	if r.CollectPairs {
		eng.OnPair = func(i, j int) {
			if len(out.Pairs) < r.MaxPairs {
				out.Pairs = append(out.Pairs, [2]int{i, j})
			} else {
				out.Truncated = true
			}
		}
	}
	sub := make([]*cluster.Cluster, len(t.Clusters))
	for i, ci := range t.Clusters {
		sub[i] = r.Clusters[ci]
	}
	pre := 0.0
	if t.Shard == 0 {
		pre = r.PreprocessSeconds
	}
	rep, err := eng.Clustered(r.R, r.S, r.Matrix, sub, r.Joiner, join.ClusteredOptions{
		Order:             r.Order,
		Seed:              r.Seed,
		PreprocessSeconds: pre,
	})
	out.Timeline = tl.Stats()
	out.Measured = eng.MeasuredIO()
	mc.RecordTimeline(out.Timeline)
	out.Metrics = mc.Finish()
	if err != nil {
		return nil, err
	}
	out.Report = rep
	return out, nil
}
