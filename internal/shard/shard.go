// Package shard plans every clustered join and runs it as shards,
// merging the per-shard results deterministically.
//
// The cluster schedule is already a partition of independent work units with
// an explicit sharing graph (Lemma 4): the only coupling between clusters is
// the buffer reuse the schedule arranges. That makes sharding a graph-cut
// problem — cut the greedy Hamiltonian path at its weakest sharing edges,
// balanced over modeled per-cluster cost, and each segment becomes a shard
// that runs the clustered executor over its own cold disk session and private
// buffer pool. An unsharded join is the one-shard plan, whose order is the
// global schedule. What a cut severs is exactly the lost buffer reuse across
// the cut edges, which a priced plan reports as the cut penalty (in pages and
// modeled seconds) so callers can weigh shards against I/O before running
// anything.
//
// Run runs a plan's shards in process, inline or as one group's tasks on
// the caller's worker pool, and MergeReports folds their reports in
// shard-index order.
package shard

import (
	"fmt"
	"math"
	"slices"

	"pmjoin/internal/buffer"
	"pmjoin/internal/cluster"
	"pmjoin/internal/disk"
	"pmjoin/internal/join"
	"pmjoin/internal/sched"
)

// CostModel carries what the planner needs besides the clusters: the
// per-cluster cost terms it balances shards over (one seek plus a transfer
// per page, the linear disk model, plus a modeled CPU charge per marked
// matrix entry), the buffer a priced plan replays, and the order shards run.
type CostModel struct {
	SeekSeconds     float64
	TransferSeconds float64
	// EntrySeconds is the modeled comparison cost per marked entry; it keeps
	// CPU-heavy clusters from piling onto one shard when page counts alone
	// would look balanced.
	EntrySeconds float64
	// BufferPages and Policy are the buffer every shard runs with, which the
	// read predictions replay (Plan.Price). They price the cut but do not
	// choose it. A BufferPages below the largest page set, zero included,
	// replays with that set's size, the smallest buffer Lemma 2 allows.
	BufferPages int
	Policy      buffer.Policy
	// Random plans random-SC (§9.1): each shard runs its clusters in the
	// seeded order sched.RandomOrder(len(members), Seed) over their ascending
	// creation indices instead of the greedy schedule over them. The cut
	// still follows the global greedy schedule.
	Random bool
	Seed   int64
}

// cluster is the modeled cost of fetching and joining one cluster solo.
func (cm CostModel) cluster(pages, entries int) float64 {
	return cm.SeekSeconds + float64(pages)*cm.TransferSeconds + float64(entries)*cm.EntrySeconds
}

// Shard is one planned segment of the global greedy schedule.
type Shard struct {
	// Clusters is the shard's execution order: the creation indices of the
	// clusters it owns, in the order its executor runs them. That is the
	// greedy schedule over its members — for a one-shard plan, the global
	// schedule itself — or, under CostModel.Random, random-SC's permutation.
	Clusters []int
	// ScheduleEdges is the size of the sharing graph the shard's greedy order
	// was built from (0 under random-SC); it prices the order's construction
	// (join.ModelSchedulePreprocess).
	ScheduleEdges int
	// Pages is the summed pinned-set size over the shard's clusters
	// (post self-join dedup), before any buffer reuse.
	Pages int64
	// Entries is the summed marked-entry count.
	Entries int64
	// CostSeconds is the shard's modeled solo cost under the CostModel —
	// the quantity the planner balanced.
	CostSeconds float64
	// PredictedReads is the page reads of the shard's run: the replay
	// (join.PredictReads) of its order from a cold buffer. Price fills it.
	PredictedReads int64
}

// Plan is the planner's output: the global greedy schedule, the shards cut
// from it, and — once priced — the cut's modeled I/O cost.
type Plan struct {
	// Order is the global greedy schedule (creation indices), and Shared[i]
	// the pages Order[i] shares with Order[i-1] (sched.StepSavings; Shared[0]
	// is 0).
	Order  []int
	Shared []int
	Shards []Shard
	// Reads[i] is the replayed page reads of Order[i] in an uncut run, and
	// UnshardedReads their sum; ShardedReads is the sum of the shards'
	// predictions. Price fills these and the two cut fields below.
	Reads          []int
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

// Cut plans a clustered join: it builds the sharing graph and the global
// greedy schedule, cuts the schedule into min(shards, len(pages)) contiguous
// segments, choosing each cut position among the cost-balanced candidates by
// minimum severed sharing (the StepSavings at the boundary), and fixes each
// shard's execution order. pages[i] and entries[i] describe cluster i's
// pinned page set and marked entry count; the plan is a deterministic
// function of the inputs. Cut replays nothing: Price adds the predictions.
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
		k = 1 // n == 0: one empty shard keeps the run path uniform
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

	plan := &Plan{Order: order, Shared: steps, Shards: make([]Shard, k)}
	for si := range plan.Shards {
		segment := order[cuts[si]:cuts[si+1]]
		sh := Shard{CostSeconds: cum[cuts[si+1]] - cum[cuts[si]]}
		for _, ci := range segment {
			sh.Pages += int64(len(pages[ci]))
			sh.Entries += int64(entries[ci])
		}
		if k == 1 && !cm.Random {
			// The greedy schedule over every cluster is the global one.
			sh.Clusters, sh.ScheduleEdges = order, len(edges)
		} else {
			sh.Clusters, sh.ScheduleEdges = cm.schedule(pages, segment)
		}
		plan.Shards[si] = sh
	}
	return plan, nil
}

// schedule is the execution order of the shard owning segment of the global
// schedule, with the size of the sharing graph it was built from: the order
// a solo run over the shard's members, listed in ascending creation order,
// takes — random-SC's seeded permutation or the greedy schedule.
func (cm CostModel) schedule(pages []sched.PageSet, segment []int) ([]int, int) {
	members := slices.Clone(segment)
	slices.Sort(members)
	if cm.Random {
		return pick(members, sched.RandomOrder(len(members), cm.Seed)), 0
	}
	sub := pick(pages, members)
	edges := sched.SharingGraph(sub)
	return pick(members, sched.GreedyOrder(len(sub), edges)), len(edges)
}

// pick returns xs[i] for each i in at, in order.
func pick[T any](xs []T, at []int) []T {
	out := make([]T, len(at))
	for i, x := range at {
		out[i] = xs[x]
	}
	return out
}

// Price returns a copy of the plan with its page reads predicted by
// replaying the executor's pins (join.PredictReads) over pages, the page sets
// the plan was cut from, with cm's buffer: the uncut schedule's reads per
// position, each shard's reads, and what the cut costs. The plan itself is
// not written, so one shared by concurrent joins may be priced. Replays
// price a cut but never choose it, so a join runs its plan unpriced. A shard
// whose order is the global schedule reuses the uncut replay.
func (p Plan) Price(pages []sched.PageSet, cm CostModel) (*Plan, error) {
	p.Shards = slices.Clone(p.Shards)
	cm.BufferPages = max(cm.BufferPages, 1)
	for _, ps := range pages {
		cm.BufferPages = max(cm.BufferPages, len(ps))
	}
	var err error
	if p.Reads, err = join.PredictReads(pages, p.Order, cm.BufferPages, cm.Policy); err != nil {
		return nil, err
	}
	p.UnshardedReads, p.ShardedReads = sum(p.Reads), 0
	for i := range p.Shards {
		sh := &p.Shards[i]
		reads := p.Reads
		if !slices.Equal(sh.Clusters, p.Order) {
			if reads, err = join.PredictReads(pages, sh.Clusters, cm.BufferPages, cm.Policy); err != nil {
				return nil, err
			}
		}
		sh.PredictedReads = sum(reads)
		p.ShardedReads += sh.PredictedReads
	}
	p.CutLostPages = p.ShardedReads - p.UnshardedReads
	p.CutPenaltySeconds = float64(p.CutLostPages)*cm.TransferSeconds +
		float64(len(p.Shards)-1)*cm.SeekSeconds
	return &p, nil
}

func sum(reads []int) int64 {
	var total int64
	for _, r := range reads {
		total += int64(r)
	}
	return total
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
// so the schedule and every prediction derived from it — the one the run's
// buffer sees.
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
