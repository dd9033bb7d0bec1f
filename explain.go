package pmjoin

import (
	"context"
	"fmt"

	"pmjoin/internal/predmat"
)

// ClusterIOPlan is the per-cluster read prediction for one scheduled cluster:
// of its Pages pinned pages, the Reads a run makes. Reads comes from
// replaying the executor's pins over a buffer of the run's size and policy
// (join.PredictReads), so it equals the run's measured fetches
// (Metrics.Clusters[i].Fetched) exactly. Every page shared with the schedule
// predecessor is reused (Lemma 4), and pages surviving from older clusters
// are reused too, so Reads never exceeds Pages minus the predecessor overlap.
type ClusterIOPlan struct {
	// Cluster is the cluster's creation index (matches
	// metrics.ClusterStats.Cluster for the same run).
	Cluster int
	// Pages is the cluster's pinned-set size: rows + cols, with row/col
	// pages that are the same frame counted once (self joins).
	Pages int
	// Reads is the page reads the cluster's pins make.
	Reads int
}

// ShardIOPlan is the predicted I/O of one planned shard: Clusters clusters
// holding Pages pinned pages, of which the shard's run reads PredictedReads
// (the replay of its own greedy schedule from a cold buffer; the rest is
// reuse within the shard). CostSeconds is the modeled solo cost the planner
// balanced shards over.
type ShardIOPlan struct {
	Shard          int
	Clusters       int
	Pages          int64
	PredictedReads int64
	CostSeconds    float64
}

// Plan describes what a prediction-matrix join would do, without executing
// it: the matrix statistics, the clustering, the schedule, and the paper's
// analytic page-read bounds. Obtain one with System.Explain.
type Plan struct {
	// Matrix statistics.
	RowPages, ColPages int
	MarkedEntries      int
	MatrixDensity      float64
	MarkedRows         int
	MarkedCols         int

	// Analytic page-read counts (not seconds):
	// NLJPageReads is block nested loop join's read count,
	// ceil(outer/(B-1)) * inner + outer.
	NLJPageReads int64
	// PMNLJLowerBound is Lemma 1's bound for pm-NLJ over the whole matrix:
	// m + min(marked rows, marked cols).
	PMNLJLowerBound int64
	// ClusteredPageReads is the clustered executor's read count before
	// buffer reuse: the sum of rows+cols over clusters (Lemma 2 grants
	// each cluster joins in memory after those reads).
	ClusteredPageReads int64
	// ScheduleSavings is the page reads recovered by the greedy schedule:
	// the summed page overlap of consecutive clusters (Lemma 4). It is the
	// paper's analytic term, not a replay: a run reuses at least this much.
	ScheduleSavings int64
	// Clustering summary.
	Clusters             int
	MaxClusterPages      int
	AvgEntriesPerCluster float64

	// ClusterIO is the per-cluster read prediction in schedule order: the
	// exact clusters a greedy-scheduled (SC) run visits, each with the reads
	// the run makes for it. A Result.Metrics snapshot's Clusters measure the
	// same reads; the two are equal cluster for cluster. The total is at
	// most ClusteredPageReads - ScheduleSavings, the paper's bound.
	ClusterIO []ClusterIOPlan

	// Shards is the sharding plan in shard-index order (nil unless
	// Options.Sharding.Shards > 0): the planner cuts the greedy schedule at
	// its weakest sharing edges, balanced over modeled per-cluster cost, and
	// each entry carries that shard's own Lemma 4 read prediction.
	Shards []ShardIOPlan
	// CutLostPages is the buffer reuse the cut severed: the shards' summed
	// predicted reads minus the uncut schedule's. CutPenaltySeconds is its
	// modeled I/O price (a transfer per lost page plus a cold first seek per
	// extra shard) — what N-way sharding pays in total I/O for its
	// wall-clock concurrency. Zero when unsharded.
	CutLostPages      int64
	CutPenaltySeconds float64
}

// String renders the plan as a compact report.
func (p *Plan) String() string {
	var runReads int64
	for _, c := range p.ClusterIO {
		runReads += int64(c.Reads)
	}
	out := fmt.Sprintf(
		"matrix %dx%d pages, %d marked (%.2f%%), %d marked rows, %d marked cols\n"+
			"page reads: NLJ=%d, pm-NLJ>=%d (Lemma 1), clustered=%d - %d reused (schedule) = %d, a run reads %d\n"+
			"clusters: %d (max %d pages, avg %.1f entries)",
		p.RowPages, p.ColPages, p.MarkedEntries, 100*p.MatrixDensity, p.MarkedRows, p.MarkedCols,
		p.NLJPageReads, p.PMNLJLowerBound, p.ClusteredPageReads, p.ScheduleSavings,
		p.ClusteredPageReads-p.ScheduleSavings, runReads,
		p.Clusters, p.MaxClusterPages, p.AvgEntriesPerCluster)
	if len(p.Shards) > 0 {
		var reads int64
		for _, sh := range p.Shards {
			reads += sh.PredictedReads
		}
		out += fmt.Sprintf("\nsharding: %d shards, %d predicted reads (cut lost %d pages, penalty %.3fs)",
			len(p.Shards), reads, p.CutLostPages, p.CutPenaltySeconds)
	}
	return out
}

// Explain renders the plan an SC join of a and b under opt runs (the two
// read one plan, matrix to shard cut, from the System's memo) with the
// paper's analytic page-read bounds (Lemmas 1-4) and the per-cluster reads a
// run will make, without reading any data pages. Only Epsilon, BufferPages,
// Policy, FilterDepth, ClusterRowFraction and Sharding.Shards of opt are
// used; the reads depend on BufferPages and Policy, which the plan replays
// once, on its first Explain. Explain shares Join's option validation: an
// Options value Join accepts, Explain accepts too.
func (s *System) Explain(a, b *Dataset, opt Options) (*Plan, error) {
	return s.ExplainContext(context.Background(), a, b, opt)
}

// ExplainContext is Explain with cancellation: an already-cancelled ctx
// returns ctx's error before any work is done, and planning, on a plan memo
// miss, checks ctx again after the matrix build and after clustering.
func (s *System) ExplainContext(ctx context.Context, a, b *Dataset, opt Options) (*Plan, error) {
	if err := s.checkJoinable(a, b, &opt); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The plan an SC join would run, priced by replaying its pins. Planning
	// records no metrics: the nil collector's hooks no-op.
	workers, release := s.workers()
	defer release()
	cp, err := s.plan(ctx, a, b, SC, opt, workers.Group(opt.Parallelism), nil)
	if err != nil {
		return nil, err
	}
	cp.price.Do(func() { cp.priced, cp.priceErr = cp.cut.Price(cp.pages, s.shardCost(opt)) })
	if cp.priceErr != nil {
		return nil, cp.priceErr
	}
	m, clusters, cut := cp.m, cp.clusters, cp.priced

	p := &Plan{
		RowPages:      a.ds.Pages,
		ColPages:      b.ds.Pages,
		MarkedEntries: m.Marked(),
		MatrixDensity: m.Density(),
		MarkedRows:    len(m.MarkedRows()),
		MarkedCols:    len(m.MarkedCols()),
		Clusters:      len(clusters),
	}
	p.NLJPageReads = nljReads(a.ds.Pages, b.ds.Pages, opt.BufferPages)
	p.PMNLJLowerBound = lemma1Bound(m)

	var entries int
	for _, c := range clusters {
		p.ClusteredPageReads += int64(c.Pages())
		if c.Pages() > p.MaxClusterPages {
			p.MaxClusterPages = c.Pages()
		}
		entries += len(c.Entries)
	}
	if len(clusters) > 0 {
		p.AvgEntriesPerCluster = float64(entries) / float64(len(clusters))
		p.ClusterIO = make([]ClusterIOPlan, len(cut.Order))
		for pos, ci := range cut.Order {
			// len(cp.pages[ci]), not Pages(): the pinned set, post self-join
			// dedup, is what the executor fetches and pins.
			p.ClusterIO[pos] = ClusterIOPlan{
				Cluster: ci,
				Pages:   len(cp.pages[ci]),
				Reads:   cut.Reads[pos],
			}
			p.ScheduleSavings += int64(cut.Shared[pos])
		}
	}
	if opt.Sharding.Shards > 0 {
		p.Shards = make([]ShardIOPlan, len(cut.Shards))
		for i, sh := range cut.Shards {
			p.Shards[i] = ShardIOPlan{
				Shard:          i,
				Clusters:       len(sh.Clusters),
				Pages:          sh.Pages,
				PredictedReads: sh.PredictedReads,
				CostSeconds:    sh.CostSeconds,
			}
		}
		p.CutLostPages = cut.CutLostPages
		p.CutPenaltySeconds = cut.CutPenaltySeconds
	}
	return p, nil
}

// nljReads is block NLJ's page-read count: the smaller dataset streams
// through the buffer in blocks of B-1 pages while the other is re-scanned
// per block.
func nljReads(aPages, bPages, buffer int) int64 {
	outer, inner := aPages, bPages
	if outer > inner {
		outer, inner = inner, outer
	}
	block := buffer - 1
	blocks := (outer + block - 1) / block
	return int64(outer) + int64(blocks)*int64(inner)
}

// lemma1Bound is the paper's Lemma 1 applied to the whole matrix: pm-NLJ
// performs at least m + min(marked rows, marked cols) page reads.
func lemma1Bound(m *predmat.Matrix) int64 {
	r := len(m.MarkedRows())
	c := len(m.MarkedCols())
	if c < r {
		r = c
	}
	return int64(m.Marked()) + int64(r)
}
