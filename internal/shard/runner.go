package shard

import (
	"context"

	"pmjoin/internal/cluster"
	"pmjoin/internal/join"
	"pmjoin/internal/metrics"
	"pmjoin/internal/predmat"
	"pmjoin/internal/sched"
)

// Task names one shard's work: the clusters it runs, by creation index and in
// execution order, and the size of the sharing graph that order was built
// from, which prices its modeled construction. Everything else a shard needs
// — datasets, matrix, options — is carried by the Runner, so a Task is small
// enough to put on the wire.
type Task struct {
	Shard         int
	Clusters      []int
	ScheduleEdges int
}

// Result is one shard's outcome. Report and Pairs are deterministic
// functions of the Task (each shard runs over a cold disk
// session and a private buffer pool, so its numbers are what a solo run over
// its clusters would produce); Metrics is observational.
type Result struct {
	Shard  int
	Report *join.Report
	// Pairs holds the shard's collected result pairs (nil unless the runner
	// collects pairs), in the shard executor's deterministic emission order,
	// and whether the shard hit its local pair cap.
	Pairs *join.Pairs
	// Metrics is the shard's own phase-scoped snapshot (nil unless the
	// runner gives each shard its own collector).
	Metrics *metrics.Metrics
}

// Runner executes one shard of a plan. RunShard must be safe for concurrent
// calls with distinct tasks: the coordinator fans tasks out to parallel
// workers. The in-process implementation is LocalRunner; a network transport
// implementing the same interface is a drop-in replacement (marshal the Task,
// run remotely, unmarshal the Result).
type Runner interface {
	RunShard(ctx context.Context, t Task) (*Result, error)
}

// LocalRunner runs shards in process: each RunShard runs a copy of the
// Engine template, so the shard gets its own cold disk session and private
// buffer pool (via Engine.Run), and executes the task's order unchanged.
type LocalRunner struct {
	// Engine is the execution environment every shard's engine copies: the
	// shared disk, buffer size and policy, comparison pool and backend.
	// Each copy gets its own Ctx and pair collector. Shards may share the
	// comparison pool: they only feed it tasks that never wait on a shard,
	// so concurrent shards cannot deadlock. The template's Metrics
	// collector is used as is, which suits a one-shard run reporting on its
	// caller's snapshot; with OwnMetrics set, every shard gets a collector of
	// its own.
	Engine join.Engine

	// The join being sharded.
	R, S     *join.Dataset
	Matrix   *predmat.Matrix
	Clusters []*cluster.Cluster
	Pages    []sched.PageSet // the clusters' pinned page sets (PageSets)
	Joiner   join.ObjectJoiner
	// PreprocessSeconds is the modeled clustering cost; it is charged to
	// shard 0 only, so the merged report counts it once. Each shard adds the
	// modeled construction of its own order (Task.ScheduleEdges).
	PreprocessSeconds float64

	// Pair collection. Each shard collects up to MaxPairs locally; MergePairs
	// re-caps globally.
	CollectPairs bool
	MaxPairs     int

	// OwnMetrics gives every shard a collector of its own, tracing when the
	// template's does, whose snapshot lands on Result.Metrics (outside the
	// determinism contract, like everywhere else).
	OwnMetrics bool
}

// RunShard executes one shard. The engine's Run scope gives the shard its
// cold session and private pool; the optional collector is per-shard, so
// nothing observational is shared across concurrent shards.
func (r *LocalRunner) RunShard(ctx context.Context, t Task) (*Result, error) {
	out := &Result{Shard: t.Shard}
	eng := r.Engine
	eng.Ctx = ctx
	eng.Pairs = nil
	if r.CollectPairs {
		eng.Pairs = join.NewPairs(r.MaxPairs)
	}
	if r.OwnMetrics {
		eng.Metrics = metrics.New(metrics.Config{Trace: r.Engine.Metrics.Tracing()})
	}
	rep, err := eng.Clustered(r.R, r.S, r.Matrix, r.Clusters, r.Pages, t.Clusters, r.Joiner)
	if r.OwnMetrics {
		out.Metrics = eng.Metrics.Finish()
	}
	if err != nil {
		return nil, err
	}
	pre := 0.0
	if t.Shard == 0 {
		pre = r.PreprocessSeconds
	}
	rep.PreprocessSeconds = pre + join.ModelSchedulePreprocess(t.ScheduleEdges)
	out.Report = rep
	out.Pairs = eng.Pairs
	return out, nil
}
