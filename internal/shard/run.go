package shard

import (
	"context"
	"fmt"

	"pmjoin/internal/join"
)

// Workers is the number of an n-shard plan's shards that run at once when at
// most workers may: all n when workers <= 0, else min(workers, n). Each shard
// in flight holds a private buffer pool, so the bound caps a join's frames.
func Workers(workers, n int) int {
	if workers <= 0 || workers > n {
		return n
	}
	return workers
}

// Run calls fn(i, plan.Shards[i]) for every shard, at most Workers(workers,
// len(plan.Shards)) at a time, and returns the first error in shard-index
// order, so the outcome does not depend on which shard finished first. fn
// writes what a shard returns into slot i of the caller's slices.
//
// With one shard or one worker the shards run inline on the caller's
// goroutine. Otherwise they run on a worker pool of their own, closed before
// Run returns. A shard blocks until its comparison runs retire, and those
// run on the join's comparison pool, so shards on that pool could fill every
// slot with blocked shards and deadlock; on a pool of their own they cannot,
// at any size.
//
// A shard checks ctx before it starts: once ctx is done, no further shard
// runs, and each unstarted one records ctx's error in its slot.
func Run(ctx context.Context, plan *Plan, workers int, fn func(i int, sh Shard) error) error {
	n := len(plan.Shards)
	errs := make([]error, n)
	run := func(i int) {
		if errs[i] = ctx.Err(); errs[i] == nil {
			errs[i] = fn(i, plan.Shards[i])
		}
	}
	if w := Workers(workers, n); w <= 1 {
		for i := range n {
			run(i)
		}
	} else {
		pool := join.NewWorkerPool(w)
		for i := range n {
			pool.Run(func() { run(i) })
		}
		pool.Close()
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// MergeReports folds the shards' reports into a new one, in shard-index
// order. Additive costs and counters sum; MarkedEntries and Method describe
// the whole join identically in every shard, so they are taken from shard 0.
// The clustering preprocess cost is charged to shard 0 only, so the summed
// PreprocessSeconds counts clustering once plus each shard's own
// schedule-construction cost. reps must hold every shard's report.
func MergeReports(reps []*join.Report) *join.Report {
	out := *reps[0]
	for _, r := range reps[1:] {
		out.IOSeconds += r.IOSeconds
		out.CPUJoinSeconds += r.CPUJoinSeconds
		out.PreprocessSeconds += r.PreprocessSeconds
		out.PageReads += r.PageReads
		out.Seeks += r.Seeks
		out.Hits += r.Hits
		out.Misses += r.Misses
		out.Comparisons += r.Comparisons
		out.Results += r.Results
		out.Clusters += r.Clusters
	}
	return &out
}
