package join

import (
	"sort"
	"sync"

	"pmjoin/internal/buffer"
	"pmjoin/internal/cluster"
	"pmjoin/internal/disk"
	"pmjoin/internal/kernel"
)

// Exec is the execution scope of one join run: the run's private I/O
// session, the buffer pool over it, and the report being built. Engine.Run
// constructs one and passes it to the executor body; external executors
// (ego, bfrj, pbsm) receive it the same way.
//
// The determinism contract, which the parallel path must uphold:
//
//   - All I/O goes through Pool/IO on the coordinating goroutine, in
//     exactly the order the serial executor would issue it. Workers never
//     touch the disk; they only compute over payloads the coordinator has
//     already fetched, reading them in place. Payloads stay valid after
//     eviction: the simulated disk keeps pages resident, and a file store's
//     pages are views of its mapping, which the caller holds open for the
//     whole run.
//   - Comparison work is appended in schedule order, one page-pair cell at a
//     time (JoinPayloads / JoinPair) or one pinned cluster at a time
//     (JoinCluster), to runs of up to taskCells cells. A run ships to the
//     workers as soon as it is full, its cluster ends, or Flush is called.
//   - Flush waits for the shipped runs and merges their results into Rep in
//     submission order, cell by cell, and links their pair chunks into the
//     engine's collector in the same order, so float64 accumulation order,
//     result counts, and pair order are those of a serial loop over the
//     cells — at any parallelism.
type Exec struct {
	// IO is the run's disk session: its charges are independent of any
	// concurrent run and also folded into the global disk counters.
	IO *disk.Session
	// Pool is the run's buffer pool, reading through IO.
	Pool *buffer.Pool
	// Rep is the report under construction.
	Rep *Report

	eng *Engine
	// tasks holds every run since the last Flush in submission order; open,
	// when non-nil, is the last of them and still accepts cells.
	tasks []*task
	open  *task
	free  []*task // recycled across Flush boundaries
	wg    sync.WaitGroup

	// Cluster scratch, reused across clusters within the run: each side's
	// pinned pages as the kernel reads them, their object IDs, and the
	// marked cells. In-flight block runs reference them, and Flush retires
	// those runs before the next cluster refills them.
	pagesR, pagesS kernel.ClusterBlock
	idsR, idsS     [][]int
	cells          []kernel.Cell
}

// taskCells is the run granularity: one page pair is ~1-10us of comparison
// work — far too fine to pay a pool round trip for — so cells ship in
// contiguous runs of this many, which keeps the worker pool balanced
// (clusters hold hundreds of cells) without a task per page pair.
const taskCells = 64

// pagePair is one cell of a fallback run: two fetched payloads and the
// joiner that compares them.
type pagePair struct {
	j    ObjectJoiner
	a, b any
}

// task is one unit of comparison work: a contiguous run of up to taskCells
// page-pair cells. A run cut from a batchable cluster (cells set) is
// evaluated by one kernel.BlockPairsWithin call over the cluster's pinned
// pages; any other run (pages set: unclustered executors, self joins,
// strings) falls back to a JoinPages call per cell. Either way run records
// each cell's comparison count and modeled CPU cost separately, so merge can
// fold them in cell order. Workers only read the shared page lists, the pages
// themselves and the id slices; each task owns its output buffers, and the
// pair chunks it writes pass to the collector at merge. Kernel hits are
// scratch of the run alone.
type task struct {
	capture bool // translate hits into pairs: the collector is set and not full

	pages []pagePair

	th         kernel.Threshold
	br, bs     *kernel.ClusterBlock
	cells      []kernel.Cell
	idsR, idsS [][]int // per page of br and bs, the payload's object IDs

	comps   []int64
	cpu     []float64
	results int64
	pairs   pairChunks
}

// blockHitsPool recycles the block kernel's hit buffers between runs and
// joins: a run holds one only while it executes, so the pool holds about one
// per worker.
var blockHitsPool = sync.Pool{New: func() any { return new([]kernel.BlockHit) }}

func (t *task) run() {
	if t.cells != nil {
		scratch := blockHitsPool.Get().(*[]kernel.BlockHit)
		all := kernel.BlockPairsWithin(&t.th, t.br, t.bs, t.cells, (*scratch)[:0])
		t.results = int64(len(all))
		if t.capture {
			// Hits come grouped by cell, so each cell's id slices are looked
			// up once, and pairs are written a chunk's worth at a time.
			cell, idsR, idsS := int32(-1), []int(nil), []int(nil)
			for hits := all; len(hits) > 0; {
				dst := t.pairs.next(len(hits))
				for i, h := range hits[:len(dst)] {
					if h.Cell != cell {
						cell = h.Cell
						c := t.cells[cell]
						idsR, idsS = t.idsR[c.R], t.idsS[c.S]
					}
					dst[i] = [2]int{idsR[h.I], idsS[h.J]}
				}
				hits = hits[len(dst):]
			}
		}
		*scratch = all[:0]
		blockHitsPool.Put(scratch)
		// The expressions JoinPages evaluates for the same page pair, so the
		// fold in merge is bit-identical to the per-cell fallback's. Empty
		// pages contribute exactly +0.0 either way.
		perPair := compareBaseCost + comparePerDimCost*float64(t.br.Dim())
		for _, c := range t.cells {
			comps := int64(t.br.PageRows(c.R)) * int64(t.bs.PageRows(c.S))
			t.comps = append(t.comps, comps)
			t.cpu = append(t.cpu, float64(comps)*perPair)
		}
		return
	}
	emit := func(i, j int) {
		t.results++
		if t.capture {
			t.pairs.add(i, j)
		}
	}
	for _, p := range t.pages {
		comps, cpu := p.j.JoinPages(p.a, p.b, emit)
		t.comps = append(t.comps, comps)
		t.cpu = append(t.cpu, cpu)
	}
}

// merge folds the run into the report, cell by cell in submission order,
// links its pair chunks into the collector, and resets the task for reuse
// (dropping payload and chunk refs while pooled).
func (t *task) merge(x *Exec) {
	for i, comps := range t.comps {
		x.Rep.Comparisons += comps
		x.Rep.CPUJoinSeconds += t.cpu[i]
	}
	x.Rep.Results += t.results
	if p := x.eng.Pairs; p != nil {
		p.link(t.pairs, t.results)
	}
	clear(t.pages)
	clear(t.pairs)
	*t = task{pages: t.pages[:0], comps: t.comps[:0], cpu: t.cpu[:0], pairs: t.pairs[:0]}
}

// Err returns the engine context's error, if any. Executors call it at
// cluster/block boundaries so cancellation is honored between units of
// work without perturbing the I/O accounting of completed units.
func (x *Exec) Err() error {
	if x.eng.Ctx == nil {
		return nil
	}
	return x.eng.Ctx.Err()
}

// Emit records one result pair inline (serial executors that interleave
// emission with their own bookkeeping use this instead of task dispatch).
func (x *Exec) Emit(a, b int) {
	x.Rep.Results++
	if p := x.eng.Pairs; p != nil {
		p.Add(a, b)
	}
}

// newRun ships the open run, if any, and opens a fresh one.
func (x *Exec) newRun() *task {
	x.ship()
	var t *task
	if n := len(x.free); n > 0 {
		t = x.free[n-1]
		x.free = x.free[:n-1]
	} else {
		t = &task{}
	}
	// Whether the collector is full is decided here, on the coordinator, from
	// the runs already merged, so which runs skip translation cannot depend
	// on timing.
	t.capture = x.eng.Pairs != nil && !x.eng.Pairs.full()
	x.tasks = append(x.tasks, t)
	x.open = t
	return t
}

// ship closes the open run and hands it to the worker pool (or evaluates it
// inline without one). Its outputs reach Rep only at the next Flush.
func (x *Exec) ship() {
	t := x.open
	if t == nil {
		return
	}
	x.open = nil
	if x.eng.Workers == nil {
		t.run()
		return
	}
	x.wg.Add(1)
	x.eng.Workers.Run(func() {
		defer x.wg.Done()
		t.run()
	})
}

// JoinPayloads schedules the comparison of two already-fetched page
// payloads (a from the first dataset, b from the second) as the next cell
// of the open run. Its counters merge into Rep only at the next Flush, in
// submission order.
func (x *Exec) JoinPayloads(j ObjectJoiner, a, b any) {
	t := x.open
	if t == nil {
		t = x.newRun()
	}
	t.pages = append(t.pages, pagePair{j: j, a: a, b: b})
	if len(t.pages) == taskCells {
		x.ship()
	}
}

// JoinPair fetches the page pair (pr of r, ps of s) through the pool — in
// that order, charging hits/misses exactly as the serial executor would —
// and schedules its comparison.
func (x *Exec) JoinPair(r, s *Dataset, pr, ps int, j ObjectJoiner) error {
	pa, err := x.Pool.Get(disk.PageAddr{File: r.File, Page: pr})
	if err != nil {
		return err
	}
	pb, err := x.Pool.Get(disk.PageAddr{File: s.File, Page: ps})
	if err != nil {
		return err
	}
	x.JoinPayloads(j, pa.Payload, pb.Payload)
	return nil
}

// JoinCluster schedules every marked entry of one cluster whose pages the
// caller has pinned — the clustered executor's only comparison dispatch. It
// reads the pages with Pool.Pinned, so the cluster's buffer traffic is its
// pin and nothing else. When the joiner reports a batch kernel, each side's
// pinned pages hand their own flat blocks and IDs to the kernel, no row
// copied, and the cells are cut into block runs; otherwise each entry becomes
// a fallback cell. The cluster's last run ships before returning, so the
// workers chew on it while the caller stages the next cluster.
func (x *Exec) JoinCluster(r, s *Dataset, c *cluster.Cluster, j ObjectJoiner) error {
	var th kernel.Threshold
	bj, batch := j.(BatchJoiner)
	if batch {
		th, batch = bj.BatchKernel()
	}
	if !batch {
		for _, en := range c.Entries {
			pa, err := x.Pool.Pinned(disk.PageAddr{File: r.File, Page: en.R})
			if err != nil {
				return err
			}
			pb, err := x.Pool.Pinned(disk.PageAddr{File: s.File, Page: en.C})
			if err != nil {
				return err
			}
			x.JoinPayloads(j, pa.Payload, pb.Payload)
		}
		x.ship()
		return nil
	}

	rows, cols := c.Rows(), c.Cols()
	var err error
	if x.idsR, err = x.pinnedPages(&x.pagesR, x.idsR[:0], r.File, rows); err != nil {
		return err
	}
	if x.idsS, err = x.pinnedPages(&x.pagesS, x.idsS[:0], s.File, cols); err != nil {
		return err
	}
	x.cells = x.cells[:0]
	for _, en := range c.Entries {
		x.cells = append(x.cells, kernel.Cell{R: sort.SearchInts(rows, en.R), S: sort.SearchInts(cols, en.C)})
	}
	x.eng.Metrics.ClusterBatch(len(x.cells), x.pagesR.Rows()+x.pagesS.Rows())
	for lo := 0; lo < len(x.cells); lo += taskCells {
		hi := min(lo+taskCells, len(x.cells))
		t := x.newRun()
		t.th, t.br, t.bs = th, &x.pagesR, &x.pagesS
		t.cells = x.cells[lo:hi:hi]
		t.idsR, t.idsS = x.idsR, x.idsS
	}
	x.ship()
	return nil
}

// pinnedPages refills b with the flat blocks of the given pinned pages of
// file, in order, and appends their object IDs to ids.
func (x *Exec) pinnedPages(b *kernel.ClusterBlock, ids [][]int, file disk.FileID, pages []int) ([][]int, error) {
	b.Reset()
	for _, p := range pages {
		pg, err := x.Pool.Pinned(disk.PageAddr{File: file, Page: p})
		if err != nil {
			return ids, err
		}
		f, pageIDs := flatPage(pg.Payload)
		b.AddPage(f)
		ids = append(ids, pageIDs)
	}
	return ids, nil
}

// Flush ships the open run, waits for every shipped run and merges their
// outputs into Rep in submission order. Executors call it at the same
// boundaries where the buffer's pinned set turns over (cluster end, outer
// block end), bounding the number of outstanding runs.
func (x *Exec) Flush() {
	x.ship()
	x.wg.Wait()
	for _, t := range x.tasks {
		t.merge(x)
	}
	x.free = append(x.free, x.tasks...)
	x.tasks = x.tasks[:0]
}
