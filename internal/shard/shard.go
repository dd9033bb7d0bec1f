// Package shard cuts a clustered join into independent shards and executes
// them on parallel workers, merging the per-shard results deterministically.
//
// The cluster schedule is already a partition of independent work units with
// an explicit sharing graph (Lemma 4): the only coupling between clusters is
// the buffer reuse the schedule arranges. That makes sharding a graph-cut
// problem — cut the greedy Hamiltonian path at its weakest sharing edges,
// balanced over modeled per-cluster cost, and each segment becomes a shard
// that runs the existing clustered executor unchanged over its own cold disk
// session and private buffer pool. What the cut severs is exactly the lost
// buffer reuse across the cut edges, which the planner reports as the cut
// penalty (in pages and modeled seconds) so callers can weigh shards against
// I/O before running anything.
//
// The shard boundary is the small Runner interface (plan in, shard result
// out): the in-process LocalRunner is the only implementation today, and a
// network transport is a drop-in replacement later.
package shard

import (
	"fmt"
	"math"
	"sort"

	"pmjoin/internal/buffer"
	"pmjoin/internal/cluster"
	"pmjoin/internal/disk"
	"pmjoin/internal/join"
	"pmjoin/internal/sched"
)

// CostModel carries the per-cluster cost terms the planner balances shards
// over: one seek plus a transfer per page (the linear disk model) plus a
// modeled CPU charge per marked matrix entry.
type CostModel struct {
	SeekSeconds     float64
	TransferSeconds float64
	// EntrySeconds is the modeled comparison cost per marked entry; it keeps
	// CPU-heavy clusters from piling onto one shard when page counts alone
	// would look balanced.
	EntrySeconds float64
	// BufferPages and Policy are the buffer every shard runs with, which the
	// read predictions replay (join.PredictReads). They price the cut but do
	// not choose it. A BufferPages below the largest page set, zero included,
	// replays with that set's size, the smallest buffer Lemma 2 allows.
	BufferPages int
	Policy      buffer.Policy
}

// cluster is the modeled cost of fetching and joining one cluster solo.
func (cm CostModel) cluster(pages, entries int) float64 {
	return cm.SeekSeconds + float64(pages)*cm.TransferSeconds + float64(entries)*cm.EntrySeconds
}

// Shard is one planned segment of the global greedy schedule.
type Shard struct {
	// Clusters holds the creation indices of the clusters this shard owns,
	// in ascending creation order. The cut is made along the global greedy
	// schedule, but the shard's executor re-derives its own order over this
	// subset, so the slice is a membership list, not an execution order —
	// and ascending order means a 1-shard plan hands the executor the same
	// input slice an unsharded run would see.
	Clusters []int
	// Pages is the summed pinned-set size over the shard's clusters
	// (post self-join dedup), before any buffer reuse.
	Pages int64
	// Entries is the summed marked-entry count.
	Entries int64
	// CostSeconds is the shard's modeled solo cost under the CostModel —
	// the quantity the planner balanced.
	CostSeconds float64
	// PredictedReads is the page reads of the shard's own run: the replay
	// (join.PredictReads) of its greedy schedule over its subset, which the
	// shard's executor rebuilds, from a cold buffer.
	PredictedReads int64
}

// Plan is the planner's output: the shards plus the cut's modeled I/O cost.
type Plan struct {
	Shards []Shard
	// UnshardedReads is the replayed page reads of the uncut global
	// schedule; ShardedReads is the sum of the shards' predictions.
	UnshardedReads int64
	ShardedReads   int64
	// CutLostPages = ShardedReads - UnshardedReads: the buffer reuse the cut
	// severed. Usually non-negative; negative is possible when a subset
	// greedy path beats the global path's restriction (both are heuristics).
	CutLostPages int64
	// CutPenaltySeconds is the modeled I/O price of the cut: a transfer per
	// lost page plus one cold first seek per extra shard.
	CutPenaltySeconds float64
}

// Tasks returns one Task per shard, in shard-index order.
func (p *Plan) Tasks() []Task {
	ts := make([]Task, len(p.Shards))
	for i, s := range p.Shards {
		ts[i] = Task{Shard: i, Clusters: s.Clusters}
	}
	return ts
}

// Cut plans a sharded execution: it builds the sharing graph and the global
// greedy schedule, then cuts the schedule into min(shards, len(pages))
// contiguous segments, choosing each cut position among the cost-balanced
// candidates by minimum severed sharing (the StepSavings at the boundary).
// pages[i] and entries[i] describe cluster i's pinned page set and marked
// entry count; both the plan and every derived prediction are deterministic
// functions of the inputs.
func Cut(pages []sched.PageSet, entries []int, shards int, cm CostModel) (*Plan, error) {
	if len(entries) != len(pages) {
		return nil, fmt.Errorf("shard: %d page sets but %d entry counts", len(pages), len(entries))
	}
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	n := len(pages)
	k := shards
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1 // n == 0: one empty shard keeps the coordinator path uniform
	}

	edges := sched.SharingGraph(pages)
	order := sched.GreedyOrder(n, edges)
	steps := sched.StepSavings(pages, order)

	// Prefix sums of modeled cost over schedule positions: cum[p] is the cost
	// of the first p scheduled clusters, so a cut at position p splits
	// [0,p) | [p,n).
	cum := make([]float64, n+1)
	for i, ci := range order {
		cum[i+1] = cum[i] + cm.cluster(len(pages[ci]), entries[ci])
	}
	total := cum[n]

	// Pick k-1 cut positions left to right. For each boundary b the ideal
	// split is at cost total*b/k; among valid positions within half a shard's
	// cost of the ideal, take the one severing the least sharing (ties: the
	// most balanced, then the leftmost). If the window is empty, fall back to
	// the most balanced valid position.
	cuts := make([]int, 0, k+1)
	cuts = append(cuts, 0)
	prev := 0
	for b := 1; b < k; b++ {
		lo, hi := prev+1, n-(k-b) // leave >= 1 cluster for every later shard
		ideal := total * float64(b) / float64(k)
		window := total / float64(2*k)
		best, bestIn := lo, inWindow(cum[lo], ideal, window)
		for p := lo + 1; p <= hi; p++ {
			in := inWindow(cum[p], ideal, window)
			if cutBetter(in, steps[p], cum[p], bestIn, steps[best], cum[best], ideal) {
				best, bestIn = p, in
			}
		}
		cuts = append(cuts, best)
		prev = best
	}
	cuts = append(cuts, n)

	cm.BufferPages = max(cm.BufferPages, 1)
	for _, ps := range pages {
		cm.BufferPages = max(cm.BufferPages, len(ps))
	}
	unsharded, err := replayedReads(pages, order, cm)
	if err != nil {
		return nil, err
	}
	plan := &Plan{
		UnshardedReads: unsharded,
		Shards:         make([]Shard, k),
	}
	for si := 0; si < k; si++ {
		// The cut decides membership only; the executor re-derives its own
		// processing order per shard. Handing members back in ascending
		// creation order makes a 1-shard plan's cluster slice identical to the
		// unsharded executor's input, so shards=1 reproduces it bit for bit.
		members := append([]int(nil), order[cuts[si]:cuts[si+1]]...)
		sort.Ints(members)
		sh := Shard{
			Clusters:    members,
			CostSeconds: cum[cuts[si+1]] - cum[cuts[si]],
		}
		for _, ci := range members {
			sh.Pages += int64(len(pages[ci]))
			sh.Entries += int64(entries[ci])
		}
		sh.PredictedReads, err = predictedReads(pages, members, cm)
		if err != nil {
			return nil, err
		}
		plan.Shards[si] = sh
		plan.ShardedReads += sh.PredictedReads
	}
	plan.CutLostPages = plan.ShardedReads - plan.UnshardedReads
	plan.CutPenaltySeconds = float64(plan.CutLostPages)*cm.TransferSeconds +
		float64(k-1)*cm.SeekSeconds
	return plan, nil
}

// inWindow reports whether a cut at cumulative cost c lands within the
// balance window around the ideal split point.
func inWindow(c, ideal, window float64) bool {
	return math.Abs(c-ideal) <= window
}

// cutBetter ranks candidate cut positions: in-window beats out-of-window;
// within the window, less severed sharing wins, then balance; outside it,
// only balance matters. Candidates are scanned left to right, so on exact
// ties the earlier (leftmost) position is kept.
func cutBetter(in bool, step int, c float64, bestIn bool, bestStep int, bestC, ideal float64) bool {
	if in != bestIn {
		return in
	}
	if in && step != bestStep {
		return step < bestStep
	}
	return math.Abs(c-ideal) < math.Abs(bestC-ideal)
}

// PageSets builds the planner's per-cluster pinned page sets, keyed
// disk.PageAddr exactly like the executor's: for a self join both sides read
// the same file, so a cluster's row page and equal column page are one frame,
// not two. Using the executor's keys keeps the planner's sharing graph — and
// so the cut and every prediction derived from it — identical to the one each
// shard's run builds.
func PageSets(clusters []*cluster.Cluster, rFile, sFile disk.FileID) []sched.PageSet {
	sets := make([]sched.PageSet, len(clusters))
	for i, c := range clusters {
		sets[i] = sched.NewPageSet(rFile, c.Rows(), sFile, c.Cols())
	}
	return sets
}

// Entries returns the per-cluster marked-entry counts, parallel to clusters.
func Entries(clusters []*cluster.Cluster) []int {
	entries := make([]int, len(clusters))
	for i, c := range clusters {
		entries[i] = len(c.Entries)
	}
	return entries
}

// predictedReads is the page-read prediction for a shard's own greedy
// schedule over its member clusters. The subset page sets are listed in
// members order, matching how the shard's executor will see them.
func predictedReads(pages []sched.PageSet, members []int, cm CostModel) (int64, error) {
	sub := make([]sched.PageSet, len(members))
	for i, ci := range members {
		sub[i] = pages[ci]
	}
	return replayedReads(sub, sched.GreedyOrder(len(sub), sched.SharingGraph(sub)), cm)
}

// replayedReads sums join.PredictReads over a schedule.
func replayedReads(pages []sched.PageSet, order []int, cm CostModel) (int64, error) {
	reads, err := join.PredictReads(pages, order, cm.BufferPages, cm.Policy)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, r := range reads {
		total += int64(r)
	}
	return total, nil
}
