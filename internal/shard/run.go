package shard

import (
	"context"
	"fmt"

	"pmjoin/internal/join"
	"pmjoin/internal/pool"
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
// len(plan.Shards)) at a time, as one group's tasks on p, and returns the
// first error in shard-index order, so the outcome does not depend on which
// shard finished first. fn writes what a shard returns into slot i of the
// caller's slices. With one shard, one worker or a nil p the shards run
// inline on the caller's goroutine. A shard that waits on its comparison
// runs runs them itself when no worker is free, so shards share p with the
// joins' other groups at any pool size.
//
// A shard checks ctx before it starts: once ctx is done, no further shard
// runs, and each unstarted one records ctx's error in its slot.
func Run(ctx context.Context, plan *Plan, p *pool.Pool, workers int, fn func(i int, sh Shard) error) error {
	n := len(plan.Shards)
	errs := make([]error, n)
	g := p.Group(Workers(workers, n))
	for i := range n {
		g.Go(func() {
			if errs[i] = ctx.Err(); errs[i] == nil {
				errs[i] = fn(i, plan.Shards[i])
			}
		})
	}
	g.Wait()
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
