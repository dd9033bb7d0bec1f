package pmjoin

import (
	"context"
	"fmt"
	"math"
	"time"

	"pmjoin/internal/bfrj"
	"pmjoin/internal/buffer"
	"pmjoin/internal/cluster"
	"pmjoin/internal/disk"
	"pmjoin/internal/ego"
	"pmjoin/internal/geom"
	"pmjoin/internal/join"
	"pmjoin/internal/metrics"
	"pmjoin/internal/mrsindex"
	"pmjoin/internal/predmat"
	"pmjoin/internal/sched"
	"pmjoin/internal/shard"
)

// ExecStats reports how a join actually executed on the host machine. Unlike
// every other Result field, these are real wall-clock measurements: they vary
// run to run and are excluded from the determinism contract (Report, Pairs
// and Plan are bit-for-bit independent of Parallelism; ExecStats is not).
// The walls, the block-kernel profile and the measured reads are views of
// Result.Metrics, filled from it on every run, cancelled or not.
type ExecStats struct {
	// Workers is the number of pool workers the join ran with (1 = inline).
	Workers int
	// MatrixWall is the wall time of prediction-matrix construction, the
	// snapshot's matrix phase (zero when the matrix was cached or the method
	// builds none).
	MatrixWall time.Duration
	// PreprocessWall is the wall time of planning a clustered join, the
	// snapshot's cluster phase: the clustering (SC or CC) and the schedule
	// with its shard cut (zero for unclustered methods).
	PreprocessWall time.Duration
	// JoinWall is the wall time of the join executor and the merge of its
	// pairs, the snapshot's join phase; for a clustered join, running the
	// plan's shards and merging their results.
	JoinWall time.Duration
	// PrefetchedPages is always 0: every page is read when its cluster pins
	// it, so no read is issued ahead of demand.
	PrefetchedPages int64
	// ModeledSerialSeconds is the modeled time of a clustered join's shards
	// run back to back: the sum over shards of Report.IOSeconds +
	// Report.CPUJoinSeconds. ModeledWallSeconds is the largest such shard
	// term, the modeled clock of shards running concurrently; unsharded, the
	// two are equal. Both are zero for unclustered methods and deterministic
	// for a fixed option set.
	ModeledWallSeconds   float64
	ModeledSerialSeconds float64
	// OverlapIOSeconds is always 0: no I/O overlaps the comparisons.
	OverlapIOSeconds float64
	// Block-kernel profile of the clustered executor (all zero for joiners
	// with no batch kernel — self joins, strings — and for unclustered
	// methods; the counters ride the metrics snapshot):
	// the number of clusters evaluated as block runs, their marked cells, and
	// the rows the kernel spans: the rows of each such cluster's pinned pages,
	// both sides, summed over the clusters.
	BatchClusters int
	BatchCells    int
	BatchRows     int
	// BatchBuildWall is always 0: the kernel reads the pinned pages in place,
	// so no block is built.
	BatchBuildWall time.Duration
	// Shards and ShardWorkers report sharded execution (0 when unsharded):
	// the planned shard count and the concurrent shard workers. When sharded,
	// ModeledSerialSeconds / ModeledWallSeconds is the modeled sharding
	// speedup.
	Shards       int
	ShardWorkers int
	// MeasuredIOWall and MeasuredReads report the physical backend read
	// account under Options.Storage = StorageFile: the number of real file
	// reads served and their summed wall latencies in seconds (read +
	// checksum + page build; concurrent shards' latencies add up, so the sum
	// can exceed JoinWall). Both repeat Result.Metrics.Measured, and both are
	// zero under the simulator. Host-dependent and excluded from the
	// determinism contract, like every other ExecStats field.
	MeasuredIOWall float64
	MeasuredReads  int64
	// Cancelled reports that the run stopped early because the context was
	// cancelled; the accompanying error carries the cause.
	Cancelled bool
}

// Result reports the outcome and simulated cost of a join.
type Result struct {
	// Report is the cost breakdown (simulated I/O seconds, modeled CPU and
	// preprocessing seconds, page reads, seeks, comparisons, result count).
	Report join.Report
	// Matrix statistics (zero for NLJ, EGO, BFRJ).
	MarkedEntries int
	MatrixDensity float64
	// MatrixSeconds is the modeled cost of prediction-matrix construction,
	// reported separately: the paper folds it into index preprocessing and
	// excludes it from Figure 10's join costs.
	MatrixSeconds float64
	// Pairs holds collected result pairs when Options.CollectPairs is set.
	Pairs [][2]int
	// Truncated reports that more pairs matched than were collected.
	Truncated bool
	// Exec is the wall-clock execution profile (not deterministic; see
	// ExecStats).
	Exec ExecStats
	// Metrics is the phase-scoped metrics snapshot of the run, with its
	// event trace when Options.Trace is set; a cancelled run returns the
	// phases it ran. Like ExecStats it is outside the determinism contract:
	// its wall-clock fields vary run to run, and collecting it never changes
	// Report or Pairs.
	Metrics *metrics.Metrics
}

// Count returns the number of result pairs found.
func (r *Result) Count() int64 { return r.Report.Results }

// TotalSeconds returns the total simulated join cost.
func (r *Result) TotalSeconds() float64 { return r.Report.Total() }

// Join executes the join of a and b under opt. For a self join pass the
// same dataset twice: each unordered result pair is then reported once, and
// for sequence data trivially overlapping window pairs (start distance less
// than the window length) are excluded.
//
// Join is JoinContext without cancellation.
func (s *System) Join(a, b *Dataset, opt Options) (*Result, error) {
	return s.JoinContext(context.Background(), a, b, opt)
}

// JoinContext is Join with cancellation: ctx is checked between clusters
// (blocks, partitions — each method's unit of work) and, on the clustered
// route, after the matrix build and after clustering, so a cancelled join
// returns promptly with ctx's error and a partial Result whose Exec.Cancelled
// is set and whose Metrics snapshot holds the phases that ran. The matrix
// build itself does not read ctx. Worker goroutines are always joined before
// JoinContext returns, cancelled or not.
//
// Concurrent JoinContext calls on one System are safe: each run charges its
// simulated I/O to a private disk session, so its Report is identical to what
// a solo run would produce.
func (s *System) JoinContext(ctx context.Context, a, b *Dataset, opt Options) (*Result, error) {
	if err := s.checkJoinable(a, b); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// Resolve the physical page source. StorageFile requires a store attached
	// via UseFileStore and leases it for the whole run: the workers read its
	// pages in place as views of its mapping, so the run holds the store read
	// lock until it returns and CloseStore waits. The lock is taken once and
	// the store passed down: a second RLock on this goroutine could deadlock
	// behind a waiting CloseStore.
	var backend disk.Backend
	if opt.Storage == StorageFile {
		s.storeMu.RLock()
		defer s.storeMu.RUnlock()
		if s.store == nil {
			return nil, fmt.Errorf("pmjoin: Options.Storage is file but no store is attached; call System.UseFileStore first")
		}
		backend = s.store
	}

	res := &Result{Exec: ExecStats{Workers: opt.Parallelism}}
	mc := metrics.New(metrics.Config{Trace: opt.Trace})
	var rep *join.Report
	var shardSnaps []*metrics.Metrics // per-shard snapshots, folded in at Finish
	err := ctx.Err()
	if err == nil {
		var wp *join.WorkerPool
		if opt.Parallelism > 1 {
			wp = join.NewWorkerPool(opt.Parallelism)
			defer wp.Close()
		}
		rep, shardSnaps, err = s.execute(ctx, a, b, opt, res, &join.Engine{
			Disk:       s.d,
			BufferSize: opt.BufferPages,
			Policy:     buffer.Policy(opt.Policy),
			Workers:    wp,
			Ctx:        ctx,
			Metrics:    mc,
			Backend:    backend,
		})
		if wp != nil {
			mc.RecordQueueHighWater(wp.QueueHighWater())
		}
	}
	if err != nil && ctx.Err() == nil {
		return nil, err
	}
	res.Metrics = mc.Finish()
	for _, sn := range shardSnaps {
		res.Metrics.AddShard(sn)
	}
	res.Exec.observe(res.Metrics)
	if err != nil {
		res.Exec.Cancelled = true
		return res, err
	}
	res.Report = *rep
	return res, nil
}

// observe fills the views of the run's metrics snapshot m: the three walls
// from its phases, the block-kernel profile from its clusters and the
// measured reads from its backend account.
func (x *ExecStats) observe(m *metrics.Metrics) {
	x.MatrixWall = m.Phases[metrics.PhaseMatrix].Wall
	x.PreprocessWall = m.Phases[metrics.PhaseCluster].Wall
	x.JoinWall = m.Phases[metrics.PhaseJoin].Wall
	x.MeasuredIOWall, x.MeasuredReads = m.Measured.Seconds, m.Measured.Reads
	for _, cs := range m.Clusters {
		if cs.BatchCells > 0 {
			x.BatchClusters++
			x.BatchCells += cs.BatchCells
			x.BatchRows += cs.BatchRows
		}
	}
}

// execute runs opt.Method on eng and returns its report and, when sharded,
// the shards' metrics snapshots. Each method's executor and the merge of its
// pairs run inside the join phase of eng.Metrics.
func (s *System) execute(ctx context.Context, a, b *Dataset, opt Options, res *Result, eng *join.Engine) (*join.Report, []*metrics.Metrics, error) {
	self := a == b || a.ds.File == b.ds.File
	joiner := s.joiner(a, opt.Epsilon, self)

	// joined runs an unclustered executor and takes its pairs; the clustered
	// route opens the join phase around its shards.
	joined := func(f func() (*join.Report, error)) (*join.Report, []*metrics.Metrics, error) {
		if opt.CollectPairs {
			eng.Pairs = join.NewPairs(opt.MaxPairs)
		}
		eng.Metrics.PhaseStart(metrics.PhaseJoin)
		defer eng.Metrics.PhaseEnd()
		rep, err := f()
		if eng.Pairs != nil {
			res.Pairs, res.Truncated = join.MergePairs([]*join.Pairs{eng.Pairs}, opt.MaxPairs)
		}
		return rep, nil, err
	}

	switch opt.Method {
	case NLJ:
		return joined(func() (*join.Report, error) { return eng.NLJ(&a.ds, &b.ds, joiner) })
	case PMNLJ:
		mx, err := s.buildMatrix(a, b, opt, eng.Workers, eng.Metrics)
		if err != nil {
			return nil, nil, err
		}
		res.setMatrix(mx)
		return joined(func() (*join.Report, error) { return eng.PMNLJ(&a.ds, &b.ds, mx.m, joiner) })
	case RandomSC, SC, CC:
		cp, err := s.planClusters(ctx, a, b, opt.Method, opt, eng.Workers, eng.Metrics)
		if err != nil {
			return nil, nil, err
		}
		res.setMatrix(cp.matrixEntry)
		return s.joinSharded(ctx, a, b, cp, joiner, opt, res, *eng)
	case EGO:
		return joined(func() (*join.Report, error) {
			return ego.Run(eng, &a.ds, &b.ds, joiner, s.egoAdapter(a, opt.Epsilon), ego.Options{SelfJoin: self, ExcludeOverlap: a.window})
		})
	case BFRJ:
		return joined(func() (*join.Report, error) {
			return bfrj.Run(eng, &a.ds, &b.ds, joiner, bfrj.Options{
				Eps:      opt.Epsilon,
				Pred:     s.predictor(a),
				SelfJoin: self,
			})
		})
	}
	return nil, nil, fmt.Errorf("pmjoin: unknown method %v", opt.Method)
}

// setMatrix reports the join's prediction matrix.
func (r *Result) setMatrix(mx matrixEntry) {
	r.MarkedEntries = mx.m.Marked()
	r.MatrixDensity = mx.m.Density()
	r.MatrixSeconds = mx.seconds
}

// clusterPlan is a clustered join's plan: the prediction matrix, the
// clusters, their pinned page sets, the modeled clustering seconds, and the
// shard planner's schedule.
type clusterPlan struct {
	matrixEntry
	clusters []*cluster.Cluster
	pages    []sched.PageSet
	pre      float64
	cut      *shard.Plan
}

// planClusters builds the plan of joining a and b under opt with method's
// clusters (SC or CC) and order (greedy or random-SC): the matrix, the
// clusters, their page sets, and shard.Cut's schedule cut into
// max(opt.Sharding.Shards, 1) shards. Join runs this plan and Explain renders
// it, so the two cannot disagree. Clustering and scheduling are charged to
// the metrics' cluster phase, which opens only if ctx is not done once the
// matrix is built; ctx is checked again after clustering.
func (s *System) planClusters(ctx context.Context, a, b *Dataset, method Method, opt Options, wp *join.WorkerPool, mc *metrics.Collector) (*clusterPlan, error) {
	mx, err := s.buildMatrix(a, b, opt, wp, mc)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mc.PhaseStart(metrics.PhaseCluster)
	defer mc.PhaseEnd()
	cp := &clusterPlan{matrixEntry: mx}
	if method == CC {
		cp.clusters, err = cluster.Cost(mx.m, opt.BufferPages, cluster.CostOptions{
			HistogramBins: opt.HistogramBins,
			Seed:          opt.Seed,
			IO: cluster.IOModel{
				SeekTime:     s.model.SeekSeconds,
				TransferTime: s.model.TransferSeconds,
			},
		})
		cp.pre = join.ModelCCPreprocess(mx.m.Marked())
	} else {
		cp.clusters, err = cluster.SquareOpts(mx.m, opt.BufferPages, cluster.SquareOptions{
			RowFraction: opt.ClusterRowFraction,
		})
		cp.pre = join.ModelSCPreprocess(mx.m.Marked())
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cp.pages = shard.PageSets(cp.clusters, a.ds.File, b.ds.File)
	cm := s.shardCost(opt)
	cm.Random, cm.Seed = method == RandomSC, opt.Seed
	cp.cut, err = shard.Cut(cp.pages, shard.Entries(cp.clusters), max(opt.Sharding.Shards, 1), cm)
	return cp, err
}

// joinSharded runs a clustered join's plan through shard.Run; it is the one
// clustered route. Shard i runs its planned order on its own copy of eng,
// with a cold disk session and private buffer pool (Engine.Run), a pair
// collector of its own and, when sharded, a metrics collector of its own.
// Results merge in shard-index order (reports and modeled clocks sum / max
// deterministically; pairs concatenate under the global cap), so the Report
// and Pairs are bit-identical for any Sharding.Workers. An unsharded join
// (Shards 0) is the one-shard plan: it runs inline and reports on the join's
// own collector, and Exec.Shards stays 0. So Shards 1 differs from it only in
// keeping a per-shard metrics snapshot. The returned snapshots are the
// per-shard metrics (none when unsharded; on a cancelled run, those of the
// shards that ran), appended to Result.Metrics after Finish. The join phase
// of eng.Metrics covers the shards and the merge; each shard's own
// collector's covers its executor.
func (s *System) joinSharded(ctx context.Context, a, b *Dataset, cp *clusterPlan, joiner join.ObjectJoiner,
	opt Options, res *Result, eng join.Engine,
) (*join.Report, []*metrics.Metrics, error) {
	eng.Metrics.PhaseStart(metrics.PhaseJoin)
	defer eng.Metrics.PhaseEnd()
	sharded := opt.Sharding.Shards > 0
	n := len(cp.cut.Shards)
	reps, cols := make([]*join.Report, n), make([]*join.Pairs, n)
	var snaps []*metrics.Metrics
	if sharded {
		snaps = make([]*metrics.Metrics, n)
	}
	err := shard.Run(ctx, cp.cut, opt.Sharding.Workers, func(i int, sh shard.Shard) error {
		e := eng
		if opt.CollectPairs {
			e.Pairs = join.NewPairs(opt.MaxPairs)
			cols[i] = e.Pairs
		}
		if sharded {
			e.Metrics = metrics.New(metrics.Config{Trace: eng.Metrics.Tracing()})
			e.Metrics.PhaseStart(metrics.PhaseJoin)
		}
		rep, err := e.Clustered(&a.ds, &b.ds, cp.m, cp.clusters, cp.pages, sh.Clusters, joiner)
		if sharded {
			e.Metrics.PhaseEnd()
			snaps[i] = e.Metrics.Finish()
		}
		if err != nil {
			return err
		}
		pre := 0.0
		if i == 0 {
			pre = cp.pre
		}
		rep.PreprocessSeconds = pre + join.ModelSchedulePreprocess(sh.ScheduleEdges)
		reps[i] = rep
		return nil
	})
	if err != nil {
		return nil, snaps, err
	}
	rep := shard.MergeReports(reps)
	rep.Method = opt.Method.String()
	if opt.CollectPairs {
		res.Pairs, res.Truncated = join.MergePairs(cols, opt.MaxPairs)
	}
	if sharded {
		res.Exec.Shards = n
		res.Exec.ShardWorkers = shard.Workers(opt.Sharding.Workers, n)
	}
	for _, r := range reps {
		t := r.IOSeconds + r.CPUJoinSeconds
		res.Exec.ModeledSerialSeconds += t
		res.Exec.ModeledWallSeconds = max(res.Exec.ModeledWallSeconds, t)
	}
	return rep, snaps, nil
}

// shardCost is the planner's balance model: the system's linear disk terms
// plus a per-marked-entry CPU weight. Only the relative magnitudes matter to
// the cut, so the SC preprocessing constant serves as the entry weight proxy.
// The buffer terms are opt's, which the shards' read predictions replay.
func (s *System) shardCost(opt Options) shard.CostModel {
	return shard.CostModel{
		SeekSeconds:     s.model.SeekSeconds,
		TransferSeconds: s.model.TransferSeconds,
		EntrySeconds:    join.SCEntryCost,
		BufferPages:     opt.BufferPages,
		Policy:          buffer.Policy(opt.Policy),
	}
}

// checkJoinable verifies that a and b belong to this system and can be
// joined with each other. It is the shared precondition of Join and Explain.
func (s *System) checkJoinable(a, b *Dataset) error {
	if a.sys != s || b.sys != s {
		return fmt.Errorf("pmjoin: datasets belong to a different system")
	}
	if a.kind != b.kind {
		return fmt.Errorf("pmjoin: cannot join %v with %v data", a.kind, b.kind)
	}
	return s.checkCompatible(a, b)
}

func (s *System) checkCompatible(a, b *Dataset) error {
	switch a.kind {
	case KindVector:
		if a.dim != b.dim {
			return fmt.Errorf("pmjoin: dimension mismatch %d vs %d", a.dim, b.dim)
		}
		if a.norm != b.norm {
			return fmt.Errorf("pmjoin: norm mismatch %v vs %v", a.norm, b.norm)
		}
	case KindSeries, KindString:
		if a.window != b.window {
			return fmt.Errorf("pmjoin: window mismatch %d vs %d", a.window, b.window)
		}
	}
	return nil
}

// joiner builds the object joiner for the data kind.
func (s *System) joiner(a *Dataset, eps float64, self bool) join.ObjectJoiner {
	switch a.kind {
	case KindVector:
		return join.VectorJoiner{Norm: a.norm, Eps: eps, Self: self}
	case KindSeries:
		return join.SeriesJoiner{Eps: eps, Self: self, ExcludeOverlap: a.window}
	default:
		// String joins filter on integer frequency distance; there is no
		// float kernel to route through.
		return join.StringJoiner{MaxEdit: stringMaxEdit(eps, a.window), Self: self, ExcludeOverlap: a.window}
	}
}

// stringMaxEdit is the integer edit-distance bound of a string join at
// threshold eps over windows of length window. No two windows are more than
// window edits apart, so any larger eps means every pair; clamping keeps the
// conversion defined, where int(eps) of eps ≥ 2⁶³ or +Inf is not (MinInt on
// amd64, which matched nothing).
func stringMaxEdit(eps float64, window int) int {
	if eps >= float64(window) {
		return window
	}
	return int(eps)
}

// predictor builds the lower-bounding predictor of Table 1.
func (s *System) predictor(a *Dataset) predmat.Predictor {
	switch a.kind {
	case KindVector:
		return predmat.NormPredictor{Norm: a.norm}
	case KindSeries:
		return predmat.NormPredictor{Norm: geom.L2, Scale: a.scale}
	default:
		return mrsindex.Predictor{}
	}
}

// buildMatrix returns the prediction matrix for (a, b, opt) from the
// System's memo, which builds each key's matrix once: concurrent cold-start
// callers wait for one build, which charges its wall time to the builder's
// metrics phase only. The build is deterministic, parallel or not, so which
// caller built is unobservable in the Result.
func (s *System) buildMatrix(a, b *Dataset, opt Options, wp *join.WorkerPool, mc *metrics.Collector) (matrixEntry, error) {
	key := newMatrixKey(a, b, opt)
	mx, _, err := s.matrices.Get(key, func() (matrixEntry, error) {
		var stats predmat.BuildStats
		bopts := predmat.BuildOptions{FilterDepth: key.depth, Stats: &stats}
		if wp != nil {
			bopts.Runner = wp
		}
		mc.PhaseStart(metrics.PhaseMatrix)
		defer mc.PhaseEnd()
		m, err := predmat.Build(a.ds.Root, b.ds.Root, a.ds.Pages, b.ds.Pages,
			opt.Epsilon, s.predictor(a), bopts)
		return matrixEntry{m: m, seconds: float64(stats.SweepEvents+stats.PairTests) * join.MatrixEntryCost}, err
	})
	return mx, err
}

// egoAdapter builds the EGO grid adapter for the data kind; the join's
// object joiner verifies the candidates.
func (s *System) egoAdapter(a *Dataset, eps float64) ego.Adapter {
	switch a.kind {
	case KindVector:
		cell := eps
		if cell <= 0 {
			cell = math.SmallestNonzeroFloat64
		}
		return &vectorEGO{cell: cell}
	case KindSeries:
		cell := eps / a.scale
		if cell <= 0 {
			cell = math.SmallestNonzeroFloat64
		}
		return &seriesEGO{cell: cell, features: a.features}
	default:
		return &stringEGO{cell: max(stringMaxEdit(eps, a.window), 1)}
	}
}
