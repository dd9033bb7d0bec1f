package join

import (
	"slices"
	"sync"

	"pmjoin/internal/buffer"
	"pmjoin/internal/cluster"
	"pmjoin/internal/disk"
	"pmjoin/internal/kernel"
	"pmjoin/internal/pool"
)

// Exec is the execution scope of one join run: the run's private I/O
// session, the buffer pool over it, and the report being built. Engine.Run
// constructs one and passes it to the executor body; external executors
// (ego, bfrj) receive it the same way.
//
// The determinism contract, which the parallel path must uphold:
//
//   - All I/O goes through Pool/IO on the coordinating goroutine, in
//     exactly the order the serial executor would issue it. Workers never
//     touch the disk; they only compute over pages the coordinator has
//     already fetched, reading them in place. Pages stay valid after
//     unpin and eviction: the simulated disk keeps pages resident, and a
//     file store's pages are views of its mapping, which the caller holds
//     open for the whole run.
//   - Comparison work is appended in schedule order, one page-pair cell at a
//     time (JoinPayloads / JoinPair) or one pinned cluster at a time
//     (JoinCluster), to runs of up to taskCells cells. A run ships to the
//     workers as soon as it is full, its cluster ends, or Flush is called.
//   - Runs are retired — waited for, then merged into Rep in submission
//     order, cell by cell, with their pair chunks linked into the engine's
//     collector in the same order — at fixed points of the coordinator's
//     sequence: Flush retires every shipped run, and JoinCluster, after
//     shipping its own runs, retires the previous cluster's. So the
//     clustered executor keeps a window of two clusters: the coordinator
//     pins and dispatches cluster i+1 while cluster i's runs execute. Float64
//     accumulation order, result counts and pair order are those of a serial
//     loop over the cells, at any parallelism, and the merge points do not
//     depend on timing.
type Exec struct {
	// IO is the run's disk session, its only I/O account: its charges are
	// independent of any concurrent run.
	IO *disk.Session
	// Pool is the run's buffer pool, reading through IO.
	Pool *buffer.Pool
	// Rep is the report under construction.
	Rep *Report

	eng *Engine
	// The window: slots[cur] takes the runs being submitted, and the other
	// slot holds the previous cluster's runs until they are retired. open,
	// when non-nil, is the last run of slots[cur] and still accepts cells.
	slots [2]slot
	cur   int
	open  *task
	free  []*task // recycled across retirements
	// pos maps a page of one side to its position among the cluster's pages
	// of that side: JoinCluster's scratch for the cells, one side at a time.
	pos []int32
}

// slot is one cluster of the window: its runs in submission order, the
// group they run in (a sibling of the engine's Workers, so both slots share
// its cap), and the cluster scratch its block runs read — each side's pinned
// pages as the kernel reads them, their object IDs, and the marked cells. A
// slot is refilled only after its runs are retired.
type slot struct {
	tasks []*task
	g     *pool.Group

	pagesR, pagesS kernel.ClusterBlock
	idsR, idsS     [][]int
	cells          []kernel.Cell
}

// taskCells is the run granularity: one page pair is ~1-10us of comparison
// work — far too fine to pay a pool round trip for — so cells ship in
// contiguous runs of this many, which keeps the worker pool balanced
// (clusters hold hundreds of cells) without a task per page pair.
const taskCells = 64

// pagePair is one cell of a fallback run: two fetched pages and the joiner
// that compares them.
type pagePair struct {
	j    ObjectJoiner
	a, b *disk.Page
}

// task is one unit of comparison work: a contiguous run of up to taskCells
// page-pair cells. A run cut from a batchable cluster (cells set) is
// evaluated by kernel.BlockPairsWithin over the cluster's pinned pages, a
// few cells a call; any other run (pages set: unclustered executors, self
// joins, strings) falls back to a JoinPages call per cell, which records each
// cell's comparison count and modeled CPU cost. merge folds those into the
// report in cell order; a block run's are functions of its cells' page
// sizes, which merge evaluates itself. Workers only read the shared page
// lists, the pages themselves and the id slices; each task owns its output
// buffers, and the pair chunks it writes pass to the collector at merge.
// Kernel hits are scratch of the run alone.
type task struct {
	capture bool // translate hits into pairs: the collector is set and not full
	// do is run, bound once per task, so shipping a recycled run allocates
	// nothing.
	do func()

	pages []pagePair

	th         kernel.Threshold
	br, bs     *kernel.ClusterBlock
	cells      []kernel.Cell
	idsR, idsS [][]int // per page of br and bs, the page's object IDs

	comps   []int64
	cpu     []float64
	results int64
	pairs   pairChunks
}

// blockHitsPool recycles the block kernel's hit buffers between runs and
// joins: a run holds one only while it executes, so the pool holds about one
// per worker.
var blockHitsPool = sync.Pool{New: func() any { return new([]kernel.BlockHit) }}

// callPairs bounds one kernel call of a block run: the call's cells hold at
// most this many row pairs, unless its one cell holds more. So a hit buffer
// grows to what one call can match (48 KiB of hits, past a larger cell), not
// to what a whole run matches.
const callPairs = 1 << 12

func (t *task) run() {
	if t.cells != nil {
		scratch := blockHitsPool.Get().(*[]kernel.BlockHit)
		hits := *scratch
		for lo, hi, pairs := 0, 0, 0; lo < len(t.cells); lo, pairs = hi, 0 {
			for ; hi < len(t.cells); hi++ {
				c := t.cells[hi]
				n := t.br.PageRows(c.R) * t.bs.PageRows(c.S)
				if hi > lo && pairs+n > callPairs {
					break
				}
				pairs += n
			}
			hits = kernel.BlockPairsWithin(&t.th, t.br, t.bs, t.cells[lo:hi], hits[:0])
			t.results += int64(len(hits))
			if t.capture {
				t.translate(t.cells[lo:hi], hits)
			}
		}
		*scratch = hits[:0]
		blockHitsPool.Put(scratch)
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

// translate writes the pairs of one kernel call's hits over cells. Hits come
// grouped by cell, so each cell's id slices are looked up once, and pairs are
// written a chunk's worth at a time.
func (t *task) translate(cells []kernel.Cell, hits []kernel.BlockHit) {
	cell, idsR, idsS := int32(-1), []int(nil), []int(nil)
	for len(hits) > 0 {
		dst := t.pairs.next(len(hits))
		for i, h := range hits[:len(dst)] {
			if h.Cell != cell {
				cell = h.Cell
				c := cells[cell]
				idsR, idsS = t.idsR[c.R], t.idsS[c.S]
			}
			dst[i] = [2]int{idsR[h.I], idsS[h.J]}
		}
		hits = hits[len(dst):]
	}
}

// merge folds the run into the report, cell by cell in submission order,
// links its pair chunks into the collector, and resets the task for reuse
// (dropping page and chunk refs while pooled).
func (t *task) merge(x *Exec) {
	if t.cells != nil {
		// The expressions JoinPages evaluates for the same page pair, so the
		// fold is bit-identical to the per-cell fallback's. Empty pages
		// contribute exactly +0.0 either way.
		perPair := pairCost(t.br.Dim())
		for _, c := range t.cells {
			comps := int64(t.br.PageRows(c.R)) * int64(t.bs.PageRows(c.S))
			x.Rep.Comparisons += comps
			x.Rep.CPUJoinSeconds += float64(comps) * perPair
		}
	}
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
	*t = task{do: t.do, pages: t.pages[:0], comps: t.comps[:0], cpu: t.cpu[:0], pairs: t.pairs[:0]}
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
		t.do = t.run
	}
	// Whether the collector is full is decided here, on the coordinator, from
	// the runs already merged, so which runs skip translation cannot depend
	// on timing.
	t.capture = x.eng.Pairs != nil && !x.eng.Pairs.full()
	x.slots[x.cur].tasks = append(x.slots[x.cur].tasks, t)
	x.open = t
	return t
}

// ship closes the open run and hands it to the current slot's group, which
// evaluates it inline when the engine has no workers. Its outputs reach Rep
// only when its slot is retired.
func (x *Exec) ship() {
	if t := x.open; t != nil {
		x.open = nil
		x.slots[x.cur].g.Go(t.do)
	}
}

// retire waits for the slot's runs, running those no worker has started,
// merges them in submission order and recycles them, which frees the slot
// for the next cluster.
func (x *Exec) retire(s *slot) {
	s.g.Wait()
	for _, t := range s.tasks {
		t.merge(x)
	}
	x.free = append(x.free, s.tasks...)
	s.tasks = s.tasks[:0]
}

// JoinPayloads schedules the comparison of two already-fetched pages (a
// from the first dataset, b from the second) as the next cell of the open
// run. Its counters merge into Rep only when the run is retired, in
// submission order.
func (x *Exec) JoinPayloads(j ObjectJoiner, a, b *disk.Page) {
	t := x.open
	if t == nil {
		t = x.newRun()
		if t.pages == nil {
			// A fresh run, at full size: growing it by append would allocate
			// twice as much.
			t.pages = make([]pagePair, 0, taskCells)
			t.comps = make([]int64, 0, taskCells)
			t.cpu = make([]float64, 0, taskCells)
		}
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
	x.JoinPayloads(j, pa, pb)
	return nil
}

// JoinCluster schedules every marked entry of one cluster whose pages the
// caller has pinned — the clustered executor's only comparison dispatch. It
// reads the pages with Pool.Pinned, so the cluster's buffer traffic is its
// pin and nothing else. When the joiner reports a batch kernel, each side's
// pinned pages hand their own flat blocks and IDs to the kernel, no row
// copied, and the cells are cut into block runs; otherwise each entry becomes
// a fallback cell.
//
// The cluster's runs fill the window's current slot and all ship before
// JoinCluster returns. It then retires the previous call's runs, waiting for
// them, and makes their slot the current one. So the workers chew on this
// cluster while the caller unpins it and pins the next, and a cluster's
// pages may still be read after the caller has unpinned them (see Exec).
// The last cluster's runs are retired by Flush.
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
			x.JoinPayloads(j, pa, pb)
		}
		x.nextCluster()
		return nil
	}

	sl := &x.slots[x.cur]
	rows, cols := c.Rows(), c.Cols()
	var err error
	if sl.idsR, err = x.pinnedPages(&sl.pagesR, sl.idsR[:0], r.File, rows); err != nil {
		return err
	}
	if sl.idsS, err = x.pinnedPages(&sl.pagesS, sl.idsS[:0], s.File, cols); err != nil {
		return err
	}
	sl.cells = slices.Grow(sl.cells[:0], len(c.Entries))[:len(c.Entries)]
	x.pos = positions(x.pos, r.Pages, rows)
	for i, en := range c.Entries {
		sl.cells[i].R = int(x.pos[en.R])
	}
	x.pos = positions(x.pos, s.Pages, cols)
	for i, en := range c.Entries {
		sl.cells[i].S = int(x.pos[en.C])
	}
	x.eng.Metrics.ClusterBatch(len(sl.cells), sl.pagesR.Rows()+sl.pagesS.Rows())
	for lo := 0; lo < len(sl.cells); lo += taskCells {
		hi := min(lo+taskCells, len(sl.cells))
		t := x.newRun()
		t.th, t.br, t.bs = th, &sl.pagesR, &sl.pagesS
		t.cells = sl.cells[lo:hi:hi]
		t.idsR, t.idsS = sl.idsR, sl.idsS
	}
	x.nextCluster()
	return nil
}

// nextCluster ships the open run, then retires the other slot — the previous
// cluster's runs — and makes it the current one.
func (x *Exec) nextCluster() {
	x.ship()
	x.cur ^= 1
	x.retire(&x.slots[x.cur])
}

// positions sets pos[p] to i for the i-th of the given pages, growing pos to
// the file's page count on first use. Other entries keep stale values.
func positions(pos []int32, filePages int, pages []int) []int32 {
	if len(pos) < filePages {
		pos = make([]int32, filePages)
	}
	for i, p := range pages {
		pos[p] = int32(i)
	}
	return pos
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
		b.AddPage(&pg.Flat)
		ids = append(ids, pg.IDs)
	}
	return ids, nil
}

// Flush ships the open run, then retires both slots, the previous cluster's
// first: it waits for every shipped run and merges their outputs into Rep in
// submission order. The clustered executor calls it once, after its last
// cluster; the other executors at each boundary where the buffer's pinned
// set turns over (outer block end, partition end), bounding the number of
// outstanding runs.
func (x *Exec) Flush() {
	x.ship()
	x.retire(&x.slots[x.cur^1])
	x.retire(&x.slots[x.cur])
}
