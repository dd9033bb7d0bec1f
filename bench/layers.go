package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"pmjoin"
	"pmjoin/internal/cluster"
	"pmjoin/internal/geom"
	"pmjoin/internal/kernel"
	"pmjoin/internal/mrsindex"
	"pmjoin/internal/predmat"
	"pmjoin/internal/rstar"
	"pmjoin/internal/sched"
	"pmjoin/internal/seqdist"
	"pmjoin/internal/shard"
)

// layerReps is how often each per-layer measurement repeats; the median is
// reported.
const layerReps = 3

// shardEntrySeconds is the per-marked-entry CPU weight the root package hands
// the shard planner (its SC preprocessing constant); only the balance of the
// timed replica cut depends on it.
const shardEntrySeconds = 100e-9

// layer times f layerReps times inside spans and returns the median.
func (lib *libRun) layer(name string, f func()) float64 {
	samples := make([]float64, lib.cfg.reps(layerReps))
	for i := range samples {
		runtime.GC()
		samples[i] = lib.r.spans.do(name, i, -1, func(int) { f() })
	}
	return median(samples)
}

// delta runs a warm join variant that differs from the workload's options in
// one layer's participation, and returns its whole-call walls, its executor
// walls and the last result.
func (lib *libRun) delta(name string, reps int, opt pmjoin.Options) (walls, exec []float64, last *pmjoin.Result, err error) {
	for i := 0; i < lib.cfg.reps(reps); i++ {
		runtime.GC()
		var res *pmjoin.Result
		wall := lib.r.spans.do(name, i, -1, func(int) {
			res, err = lib.fx.sys.Join(lib.fx.a, lib.fx.b, opt)
		})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %s: %w", lib.spec.name, name, err)
		}
		if opt.Sharding.Shards > 0 {
			// Sharding re-reads the pages its cut severs; results and
			// comparisons still repeat.
			lib.r.check(res.Report.Results == lib.base.results && res.Report.Comparisons == lib.base.comparisons,
				"%s: %d results / %d comparisons, want %d / %d", name,
				res.Report.Results, res.Report.Comparisons, lib.base.results, lib.base.comparisons)
		} else {
			lib.verify(name, res, false)
		}
		walls, exec, last = append(walls, wall), append(exec, res.Exec.JoinWall.Seconds()), res
	}
	return walls, exec, last, nil
}

// onOff interleaves two warm join variants, so drift over the pass cancels,
// and returns each side's median whole-call wall and the on side's last
// result.
func (lib *libRun) onOff(onName string, on pmjoin.Options, offName string, off pmjoin.Options) (onS, offS float64, last *pmjoin.Result, err error) {
	var onW, offW []float64
	for i := 0; i < lib.cfg.reps(layerReps); i++ {
		w, _, res, err := lib.delta(onName, 1, on)
		if err != nil {
			return 0, 0, nil, err
		}
		onW, last = append(onW, w[0]), res
		if w, _, _, err = lib.delta(offName, 1, off); err != nil {
			return 0, 0, nil, err
		}
		offW = append(offW, w[0])
	}
	return median(onW), median(offW), last, nil
}

// ledger carries the traced pass's figures from one step to the next.
type ledger struct {
	rep      *replica
	clusters []*cluster.Cluster // the replica's clustering

	// Medians of the reference loop.
	coldS, warmS, execS, clusterS float64
	ioS, ioReads                  float64
	warmRes                       *pmjoin.Result

	traced        *pmjoin.Result // a warm join with Options.Trace on
	execP1, emitS float64
}

// tracedPass takes the per-layer ledger from outside by three techniques
// only: direct timed calls into a layer's public functions over a replica of
// the inputs (D), root-API runs that differ in one layer's participation (Δ),
// and exact counters the public API returns (C).
func (lib *libRun) tracedPass() error {
	r, fx := lib.r, lib.fx
	r.set("dataset.gen_s", fx.genS)
	r.set("index.build_s", fx.indexS)
	r.set("store.attach_s", fx.attachS)

	lg := &ledger{}
	for _, step := range []func(*ledger) error{
		lib.referenceLoop, lib.deltaRuns, lib.planChecks, lib.directCalls,
	} {
		if err := step(lg); err != nil {
			return err
		}
	}
	if lib.spec.fileStore {
		return lib.storeLayer(lg)
	}
	return nil
}

// referenceLoop is a short untraced cold/warm loop in this process, so every
// Δ and the traced pass's own overhead compare against numbers taken under
// the same conditions. The ledger's three terms — a cold join, a warm join
// and the direct clustering call over the replica — are taken side by side in
// each iteration, so a slow spell of the host scales them together.
func (lib *libRun) referenceLoop(lg *ledger) error {
	r, spec, base := lib.r, lib.spec, lib.baseline
	var err error
	if lg.rep, err = lib.buildReplica(); err != nil {
		return err
	}

	var coldW, warmW, tracedW, clusterW, matrixW, preW, execW, ioW, ioReads []float64
	for i := 0; i < lib.cfg.reps(4); i++ {
		r.spans.on = false
		opt := lib.freshKey()
		wall, res, err := lib.join(opt)
		if err != nil {
			return err
		}
		lib.verify("reference cold", res, true)
		coldW, matrixW = append(coldW, wall), append(matrixW, res.Exec.MatrixWall.Seconds())
		if wall, res, err = lib.join(opt); err != nil {
			return err
		}
		lib.verify("reference warm", res, false)
		warmW = append(warmW, wall)
		preW = append(preW, res.Exec.PreprocessWall.Seconds())
		execW = append(execW, res.Exec.JoinWall.Seconds())
		ioW, ioReads = append(ioW, res.Exec.MeasuredIOWall), append(ioReads, float64(res.Exec.MeasuredReads))
		lg.warmRes = res

		// The same warm join inside a harness span, interleaved so the
		// traced pass's own overhead is not drift.
		r.spans.on = true
		w, _, _, err := lib.delta("join.warm", 1, opt)
		if err != nil {
			return err
		}
		tracedW = append(tracedW, w[0])

		runtime.GC()
		clusterW = append(clusterW, r.spans.do("cluster.build", i, -1, func(int) {
			lg.clusters, err = lg.rep.cluster(spec.opt.Method, spec.opt.BufferPages)
		}))
		if err != nil {
			return fmt.Errorf("%s: replica clustering: %w", spec.name, err)
		}
	}
	lg.coldS, lg.warmS, lg.execS, lg.clusterS = median(coldW), median(warmW), median(execW), median(clusterW)
	lg.ioS, lg.ioReads = median(ioW), median(ioReads)

	// Δ: predmat is what a cold join pays over a warm one. D: clustering.
	r.set("predmat.build_s", lg.coldS-lg.warmS)
	r.set("cluster.build_s", lg.clusterS)
	r.set("join.exec_s", lg.execS)
	r.set("trace.pass_overhead_frac", (median(tracedW)-lg.warmS)/lg.warmS)
	note("%s: predmat.build_s Δ %.4fs vs Exec.MatrixWall p50 %.4fs", spec.name, lg.coldS-lg.warmS, median(matrixW))
	note("%s: cluster.build_s D %.4fs vs Exec.PreprocessWall p50 %.4fs", spec.name, lg.clusterS, median(preW))
	gap := math.Abs((lg.coldS-lg.warmS)+lg.clusterS+lg.execS-lg.coldS) / lg.coldS
	r.set("trace.ledger_gap_frac", gap)
	if gap > 0.15 {
		note("%s: layers miss the cold wall by %.1f%% (tolerance 15%%)", spec.name, 100*gap)
	}

	// C: exact counters of the public API.
	r.set("predmat.marked", float64(base.MarkedEntries))
	r.set("predmat.density", base.MatrixDensity)
	r.set("join.comparisons", float64(base.Report.Comparisons))
	r.set("join.results", float64(base.Report.Results))
	r.set("buffer.hits", float64(base.Report.Hits))
	r.set("buffer.misses", float64(base.Report.Misses))
	r.set("buffer.hit_ratio", ratio(float64(base.Report.Hits), float64(base.Report.Hits+base.Report.Misses)))
	r.set("disk.page_reads", float64(base.Report.PageReads))
	r.set("disk.seeks", float64(base.Report.Seeks))
	r.set("disk.modeled_wall_s", lg.warmRes.Exec.ModeledWallSeconds)
	r.set("disk.modeled_serial_s", lg.warmRes.Exec.ModeledSerialSeconds)
	r.set("disk.overlap_io_s", lg.warmRes.Exec.OverlapIOSeconds)
	r.set("buffer.prefetched_pages", float64(lg.warmRes.Exec.PrefetchedPages))
	return nil
}

// deltaRuns are the warm root-API runs that differ from the workload's
// options in one layer's participation.
func (lib *libRun) deltaRuns(lg *ledger) error {
	r, warmOpt := lib.r, lib.spec.opt

	// The executor's own Trace ledger on, interleaved with it off.
	traceOpt := warmOpt
	traceOpt.Trace = true
	traceS, plainS, traced, err := lib.onOff("join.traced", traceOpt, "join.untraced", warmOpt)
	if err != nil {
		return err
	}
	lg.traced = traced
	r.set("metrics.trace_overhead_frac", (traceS-plainS)/plainS)
	tm := traced.Metrics
	var phaseSum time.Duration
	for _, ph := range tm.Phases {
		phaseSum += ph.Wall
	}
	r.set("metrics.phase_sum_frac", ratio(phaseSum.Seconds(), tm.Wall.Seconds()))
	r.set("buffer.evictions", float64(tm.Buffer.Evictions))
	r.set("join.queue_highwater", float64(tm.QueueHighWater))
	r.set("join.batch_build_s", traced.Exec.BatchBuildWall.Seconds())
	r.set("join.batch_cells", float64(traced.Exec.BatchCells))
	r.set("join.batch_rows", float64(traced.Exec.BatchRows))

	// One comparison worker.
	p1Opt := warmOpt
	p1Opt.Parallelism = 1
	_, p1Exec, _, err := lib.delta("join.p1", layerReps, p1Opt)
	if err != nil {
		return err
	}
	lg.execP1 = median(p1Exec)
	r.set("join.exec_p1_s", lg.execP1)
	r.set("join.par_speedup", ratio(lg.execP1, lg.execS))

	// Pair emission on vs off.
	emitOn, emitOff := warmOpt, warmOpt
	emitOn.CollectPairs, emitOn.MaxPairs = true, 1<<30
	emitOff.CollectPairs = false
	onS, offS, _, err := lib.onOff("join.emit_on", emitOn, "join.emit_off", emitOff)
	if err != nil {
		return err
	}
	lg.emitS = onS - offS
	r.set("join.emit_s", lg.emitS)
	if lg.emitS > 0 {
		r.set("join.emit_pairs_per_s", float64(lib.base.results)/lg.emitS)
	}

	// Two shards on two shard workers.
	_, shardExec, _, err := lib.delta("join.sharded", layerReps, shardedOpt(warmOpt))
	if err != nil {
		return err
	}
	r.set("shard.join_s", median(shardExec))
	r.set("shard.speedup", ratio(lg.execS, median(shardExec)))
	return nil
}

func shardedOpt(opt pmjoin.Options) pmjoin.Options {
	opt.Sharding = pmjoin.ShardingOptions{Shards: 2, Workers: 2}
	return opt
}

// planChecks times Explain over the cached matrix and holds the plan against
// the traced run, cluster for cluster.
func (lib *libRun) planChecks(lg *ledger) error {
	r, fx, spec := lib.r, lib.fx, lib.spec
	var plan *pmjoin.Plan
	var err error
	r.set("plan.explain_s", lib.layer("plan.explain", func() { plan, err = fx.sys.Explain(fx.a, fx.b, spec.opt) }))
	if err != nil {
		return fmt.Errorf("%s: explain: %w", spec.name, err)
	}
	cutPlan, err := fx.sys.Explain(fx.a, fx.b, shardedOpt(spec.opt))
	if err != nil {
		return fmt.Errorf("%s: explain sharded: %w", spec.name, err)
	}
	r.set("shard.cut_lost_pages", float64(cutPlan.CutLostPages))
	if spec.opt.Method != pmjoin.SC {
		return nil // Explain plans SC; a CC run has other clusters
	}

	// Lemma 4 predicts each cluster's reads as its pages minus what it shares
	// with its schedule predecessor. The schedule and the pinned sets must
	// match the run exactly; the read counts are reported, since LRU may
	// evict a shared page before its pin or keep an older one.
	tm := lg.traced.Metrics
	sound := len(plan.ClusterIO) == len(tm.Clusters)
	var mismatch int
	var planned, fetched int64
	for i := 0; sound && i < len(plan.ClusterIO); i++ {
		p, m := plan.ClusterIO[i], tm.Clusters[i]
		sound = p.Cluster == m.Cluster && p.Pages == m.Pinned && m.Fetched+m.Reused == int64(m.Pinned)
		if int64(p.Reads) != m.Fetched {
			mismatch++
		}
		planned, fetched = planned+int64(p.Reads), fetched+m.Fetched
	}
	r.check(sound && fetched == lib.baseline.Report.Misses,
		"Lemma 4: the traced run's %d clusters (fetching %d pages) do not follow the plan's %d-cluster schedule (run missed %d)",
		len(tm.Clusters), fetched, len(plan.ClusterIO), lib.baseline.Report.Misses)
	r.set("disk.lemma4_mismatch", float64(mismatch))
	r.set("disk.lemma4_excess_reads", float64(fetched-planned))
	return nil
}

// directCalls times the layers that are pure functions of plain data, over
// the replica: scheduling, the shard cut, and every marked cell's comparisons.
func (lib *libRun) directCalls(lg *ledger) error {
	r, spec, base, rep, clusters := lib.r, lib.spec, lib.baseline, lg.rep, lg.clusters
	B := spec.opt.BufferPages
	maxPages, sumPages := 0, 0
	for _, c := range clusters {
		sumPages += c.Pages()
		if c.Pages() > maxPages {
			maxPages = c.Pages()
		}
	}
	r.set("cluster.count", float64(len(clusters)))
	r.set("cluster.max_pages", float64(maxPages))
	r.set("cluster.entries_per_cluster", ratio(float64(rep.matrix.Marked()), float64(len(clusters))))
	r.check(maxPages <= B, "Lemma 2: a cluster needs %d pages, buffer is %d", maxPages, B)

	pages := shard.PageSets(clusters, 0, 1)
	var edges []sched.Edge
	var order []int
	r.set("sched.graph_s", lib.layer("sched.graph", func() { edges = sched.SharingGraph(pages) }))
	r.set("sched.order_s", lib.layer("sched.order", func() { order = sched.GreedyOrder(len(pages), edges) }))
	savings := sched.PathSavings(pages, order)
	r.set("sched.savings_pages", float64(savings))
	r.set("sched.savings_frac", ratio(float64(savings), float64(sumPages)))
	var err error
	r.set("shard.cut_s", lib.layer("shard.cut", func() {
		_, err = shard.Cut(shard.PageSets(clusters, 0, 1), shard.Entries(clusters), 2,
			shard.CostModel{SeekSeconds: seekSeconds, TransferSeconds: transferSeconds, EntrySeconds: shardEntrySeconds})
	}))
	if err != nil {
		return fmt.Errorf("%s: replica shard cut: %w", spec.name, err)
	}

	// Every marked cell's object pairs, single-threaded.
	var rp replay
	var compareS float64
	if lib.fx.in.isString() {
		compareS = lib.layer("seqdist.pairs", func() { rp = rep.replayStrings(int(spec.opt.Epsilon)) })
		r.set("seqdist.pairs_s", compareS)
		r.set("seqdist.cmp_per_s", ratio(float64(rp.comparisons), compareS))
		r.set("seqdist.filter_pass_frac", ratio(float64(rp.verified), float64(rp.comparisons)))
	} else {
		// The kernel's share is the time inside BlockPairsWithin alone;
		// building the blocks is the executor's (join.batch_build_s).
		samples := make([]float64, lib.cfg.reps(layerReps))
		for i := range samples {
			runtime.GC()
			r.spans.do("kernel.block", i, -1, func(int) { rp = rep.replayVectors(clusters, spec.opt.Epsilon) })
			samples[i] = rp.kernelS
		}
		compareS = median(samples)
		r.set("kernel.block_s", compareS)
		r.set("kernel.cmp_per_s", ratio(float64(rp.comparisons), compareS))
	}
	r.set("predmat.useful_mark_frac", ratio(float64(rp.usefulCells), float64(rep.matrix.Marked())))

	residual := lg.execP1 - compareS
	if spec.opt.CollectPairs { // emission is inside exec_p1 only when the workload collects
		residual -= lg.emitS
	}
	r.set("join.residual_s", residual)

	mismatch := rep.matrix.Marked() != base.MarkedEntries || len(clusters) != base.Report.Clusters ||
		rp.comparisons != base.Report.Comparisons || rp.results != base.Report.Results
	r.set("trace.replica_mismatch", boolCount(mismatch))
	r.check(!mismatch, "replica: %d marked / %d clusters / %d comparisons / %d results, root API: %d / %d / %d / %d",
		rep.matrix.Marked(), len(clusters), rp.comparisons, rp.results,
		base.MarkedEntries, base.Report.Clusters, base.Report.Comparisons, base.Report.Results)
	return nil
}

// storeLayer measures what only the file-backed workload has.
func (lib *libRun) storeLayer(lg *ledger) error {
	r, fx, warmOpt := lib.r, lib.fx, lib.spec.opt
	bytes, err := storeBytes(fx.storeDir)
	if err != nil {
		return err
	}
	r.set("store.bytes_per_user_byte", ratio(bytes, fx.in.userBytes()))
	r.set("store.measured_io_s", lg.ioS)
	r.set("store.measured_reads", lg.ioReads)
	r.set("store.us_per_read", ratio(lg.ioS*1e6, lg.ioReads))

	simOpt := warmOpt
	simOpt.Storage = 0 // the default: the in-memory simulator
	simW, _, _, err := lib.delta("join.sim", layerReps, simOpt)
	if err != nil {
		return err
	}
	r.set("store.wall_vs_sim", ratio(lg.warmS, median(simW)))

	// OS cache dropped before each join; the sandbox's page cache decides
	// what that costs, so the figure is informational.
	var coldW []float64
	for i := 0; i < lib.cfg.reps(5); i++ {
		if err := fx.sys.DropStoreCaches(); err != nil {
			return err
		}
		w, _, _, err := lib.delta("join.store_cold", 1, warmOpt)
		if err != nil {
			return err
		}
		coldW = append(coldW, w[0])
	}
	r.set("store.cold_join_s", median(coldW))
	return nil
}

func boolCount(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// note prints a cross-check beside the report; notes never fail a run.
func note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: note: "+format+"\n", args...)
}

// replica is the harness's own index over the workload's inputs, built the
// way AddVectors / AddString build theirs, so layers that are pure functions
// of plain data can be called and timed directly.
type replica struct {
	matrix *predmat.Matrix
	// Vector workloads: each page's rows, flattened.
	flatA, flatB []*kernel.FlatPage
	// String workloads: each page's windows and frequency vectors.
	winA, winB   [][][]byte
	freqA, freqB [][][]int
}

func (lib *libRun) buildReplica() (*replica, error) {
	in, spec := lib.fx.in, lib.spec
	rep := &replica{}
	var err error
	if in.isString() {
		cfg := mrsindex.Config{Window: in.window, Stride: in.stride, PageBytes: spec.pageBytes}
		ixA, err := mrsindex.Build(in.seqA, seqdist.DNA, cfg)
		if err != nil {
			return nil, err
		}
		ixB, err := mrsindex.Build(in.seqB, seqdist.DNA, cfg)
		if err != nil {
			return nil, err
		}
		rep.winA, rep.freqA = stringPages(ixA)
		rep.winB, rep.freqB = stringPages(ixB)
		rep.matrix, err = predmat.Build(ixA.Root(), ixB.Root(), ixA.NumPages(), ixB.NumPages(),
			spec.opt.Epsilon, mrsindex.Predictor{}, predmat.BuildOptions{FilterDepth: predmat.DefaultFilterDepth})
		return rep, err
	}
	treeA, flatA, err := vectorPages(in.vecA, spec.pageBytes)
	if err != nil {
		return nil, err
	}
	treeB, flatB, err := vectorPages(in.vecB, spec.pageBytes)
	if err != nil {
		return nil, err
	}
	rep.flatA, rep.flatB = flatA, flatB
	rep.matrix, err = predmat.Build(treeA.Root(), treeB.Root(), len(flatA), len(flatB),
		spec.opt.Epsilon, predmat.NormPredictor{Norm: geom.L2}, predmat.BuildOptions{FilterDepth: predmat.DefaultFilterDepth})
	return rep, err
}

// vectorPages bulk-loads vecs with AddVectors' leaf capacity and flattens
// each packed page.
func vectorPages(vecs [][]float64, pageBytes int) (*rstar.Tree, []*kernel.FlatPage, error) {
	dim := len(vecs[0])
	perPage := pageBytes / (8*dim + 8)
	if perPage < 2 {
		perPage = 2
	}
	items := make([]rstar.Item, len(vecs))
	for i, v := range vecs {
		items[i] = rstar.PointItem(i, v)
	}
	tree, err := rstar.BulkLoadSTR(dim, rstar.DefaultConfig(perPage), items)
	if err != nil {
		return nil, nil, err
	}
	var flat []*kernel.FlatPage
	for _, pg := range tree.Pack() {
		f := kernel.NewFlatPage(dim, len(pg))
		for _, it := range pg {
			f.AppendRow(it.MBR.Min)
		}
		flat = append(flat, f)
	}
	return tree, flat, nil
}

func stringPages(ix *mrsindex.Index) (wins [][][]byte, freqs [][][]int) {
	for p := 0; p < ix.NumPages(); p++ {
		_, _, w, f := ix.PageWindows(p)
		wins, freqs = append(wins, w), append(freqs, f)
	}
	return wins, freqs
}

// cluster runs the workload's clustering algorithm over the replica matrix
// with the options the root package passes.
func (rep *replica) cluster(method pmjoin.Method, b int) ([]*cluster.Cluster, error) {
	if method == pmjoin.CC {
		return cluster.Cost(rep.matrix, b, cluster.CostOptions{
			IO: cluster.IOModel{SeekTime: seekSeconds, TransferTime: transferSeconds},
		})
	}
	return cluster.SquareOpts(rep.matrix, b, cluster.SquareOptions{})
}

// replay is one single-threaded evaluation of every marked cell.
type replay struct {
	comparisons, verified, results int64
	usefulCells                    int
	kernelS                        float64
}

// replayVectors evaluates each cluster the way the batched executor does: one
// block per side, one BlockPairsWithin call.
func (rep *replica) replayVectors(clusters []*cluster.Cluster, eps float64) replay {
	var out replay
	th := kernel.NewThresholdSq(eps)
	var br, bs kernel.ClusterBlock
	slotR, slotS := make([]int, len(rep.flatA)), make([]int, len(rep.flatB))
	var cells []kernel.Cell
	var hits []kernel.BlockHit
	for _, c := range clusters {
		br.Reset()
		bs.Reset()
		for _, p := range c.Rows() {
			slotR[p] = br.AddPage(rep.flatA[p])
		}
		for _, p := range c.Cols() {
			slotS[p] = bs.AddPage(rep.flatB[p])
		}
		cells = cells[:0]
		for _, e := range c.Entries {
			cells = append(cells, kernel.Cell{R: slotR[e.R], S: slotS[e.C]})
			out.comparisons += int64(rep.flatA[e.R].N) * int64(rep.flatB[e.C].N)
		}
		start := time.Now()
		hits = kernel.BlockPairsWithin(&th, &br, &bs, cells, hits[:0])
		out.kernelS += time.Since(start).Seconds()
		out.results += int64(len(hits))
		for i, h := range hits {
			if i == 0 || h.Cell != hits[i-1].Cell {
				out.usefulCells++
			}
		}
	}
	return out
}

// replayStrings runs the frequency-distance filter and the bounded edit
// distance over every marked cell's window pairs.
func (rep *replica) replayStrings(maxEdit int) replay {
	var out replay
	for _, e := range rep.matrix.Entries() {
		useful := false
		for i, w := range rep.winA[e.R] {
			fi := rep.freqA[e.R][i]
			for k, v := range rep.winB[e.C] {
				out.comparisons++
				if seqdist.FreqDistance(fi, rep.freqB[e.C][k]) > maxEdit {
					continue
				}
				out.verified++
				if _, ok := seqdist.EditDistanceBounded(w, v, maxEdit); ok {
					out.results++
					useful = true
				}
			}
		}
		if useful {
			out.usefulCells++
		}
	}
	return out
}
