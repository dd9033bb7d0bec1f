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
//     (JoinCluster), to runs of up to taskCells cells, which the joiner's
//     JoinCells evaluates. A run ships to the workers as soon as it is
//     full, its cluster ends, or Flush is called.
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
	// pos maps a page of one side to its position among the cluster's pages
	// of that side: JoinCluster's scratch for the cells, one side at a time.
	pos []int32
}

// slot is one cluster of the window: its runs in submission order, the
// group they run in (a sibling of the engine's Workers, so both slots share
// its cap), and the cluster's pinned pages and marked cells, which its runs
// share. A slot is refilled only after its runs are retired.
type slot struct {
	tasks []*task
	g     *pool.Group
	cellSet
}

// cellSet is a run's input: the pages of its two sides and the cells over
// them.
type cellSet struct {
	r, s  Side
	cells []kernel.Cell
}

// taskCells is the run granularity: one page pair is ~1-10us of comparison
// work — far too fine to pay a pool round trip for — so cells ship in
// contiguous runs of this many, which keeps the worker pool balanced
// (clusters hold hundreds of cells) without a task per page pair.
const taskCells = 64

// task is one unit of comparison work, a run: one joiner and a contiguous
// run of up to taskCells page-pair cells over two sides. A clustered run's
// cells and sides are its slot's; a run that JoinPayloads fills has its own,
// one page a side per cell. Every run is evaluated the same way: JoinCells
// calls of a few cells each, whose hits are translated into pairs through
// the sides' IDs, and whose per-cell counters merge folds into the report in
// cell order. Workers only read the sides, the pages themselves and the
// cells; each task owns its output buffers, and the pair chunks it writes
// pass to the collector at merge. Hits are scratch of the run alone.
type task struct {
	capture bool // translate hits into pairs: the collector is set and not full
	// do is run, bound once per task, so shipping a recycled run allocates
	// nothing.
	do func()

	j     ObjectJoiner
	in    *cellSet // the sides the cells index: the slot's, or own
	cells []kernel.Cell
	own   cellSet

	out     CellOut
	results int64
	pairs   pairChunks
}

// taskPool recycles runs, with their buffers, between retirements and joins.
var taskPool = sync.Pool{New: func() any {
	t := &task{out: CellOut{CPU: make([]float64, 0, taskCells)}}
	t.do = t.run
	return t
}}

// hitsPool recycles the runs' hit buffers between runs and joins: a run
// holds one only while it executes, so the pool holds about one per worker.
var hitsPool = sync.Pool{New: func() any { return new([]kernel.BlockHit) }}

// callPairs bounds one JoinCells call of a run: the call's cells hold at
// most this many object pairs, unless its one cell holds more. So a hit
// buffer grows to what one call can match (48 KiB of hits, past a larger
// cell), not to what a whole run matches.
const callPairs = 1 << 12

func (t *task) run() {
	scratch := hitsPool.Get().(*[]kernel.BlockHit)
	t.out.Hits = *scratch
	r, s := &t.in.r, &t.in.s
	for lo, hi, pairs := 0, 0, 0; lo < len(t.cells); lo, pairs = hi, 0 {
		for ; hi < len(t.cells); hi++ {
			c := t.cells[hi]
			n := len(r.Pages[c.R].IDs) * len(s.Pages[c.S].IDs)
			if hi > lo && pairs+n > callPairs {
				break
			}
			pairs += n
		}
		t.out.Hits = t.out.Hits[:0]
		t.j.JoinCells(r, s, t.cells[lo:hi], &t.out)
		t.results += int64(len(t.out.Hits))
		if t.capture {
			t.translate(t.cells[lo:hi], t.out.Hits)
		}
	}
	*scratch = t.out.Hits[:0]
	t.out.Hits = nil
	hitsPool.Put(scratch)
}

// translate writes the pairs of one JoinCells call's hits over cells. Hits
// come grouped by cell, so each cell's ID slices are looked up once, and
// pairs are written a chunk's worth at a time.
func (t *task) translate(cells []kernel.Cell, hits []kernel.BlockHit) {
	cell, idsR, idsS := int32(-1), []int(nil), []int(nil)
	for len(hits) > 0 {
		dst := t.pairs.next(len(hits))
		for i, h := range hits[:len(dst)] {
			if h.Cell != cell {
				cell = h.Cell
				c := cells[cell]
				idsR, idsS = t.in.r.Pages[c.R].IDs, t.in.s.Pages[c.S].IDs
			}
			dst[i] = [2]int{idsR[h.I], idsS[h.J]}
		}
		hits = hits[len(dst):]
	}
}

// merge folds the run into the report, its cells' CPU seconds in cell
// order, links its pair chunks into the collector, and resets the task for
// reuse (dropping page and chunk refs while pooled).
func (t *task) merge(x *Exec) {
	x.Rep.Comparisons += t.out.Comps
	sum := x.Rep.CPUJoinSeconds
	for _, cpu := range t.out.CPU {
		sum += cpu
	}
	x.Rep.CPUJoinSeconds = sum
	x.Rep.Results += t.results
	if p := x.eng.Pairs; p != nil {
		p.link(t.pairs, t.results)
	}
	clear(t.pairs)
	t.own.r.reset()
	t.own.s.reset()
	t.own.cells = t.own.cells[:0]
	*t = task{do: t.do, own: t.own, out: CellOut{CPU: t.out.CPU[:0]}, pairs: t.pairs[:0]}
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

// newRun ships the open run, if any, and opens a fresh one for joiner j.
func (x *Exec) newRun(j ObjectJoiner) *task {
	x.ship()
	t := taskPool.Get().(*task)
	t.j = j
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
		taskPool.Put(t)
	}
	clear(s.tasks)
	s.tasks = s.tasks[:0]
}

// JoinPayloads schedules the comparison of two already-fetched pages (a
// from the first dataset, b from the second) under j as the next cell of the
// open run, whose own sides take the two pages. Its counters merge into Rep
// only when the run is retired, in submission order.
func (x *Exec) JoinPayloads(j ObjectJoiner, a, b *disk.Page) {
	t := x.open
	if t == nil || t.j != j {
		t = x.newRun(j)
		t.in = &t.own
	}
	o := &t.own
	o.r.add(a)
	o.s.add(b)
	o.cells = append(o.cells, kernel.Cell{R: len(o.cells), S: len(o.cells)})
	t.cells = o.cells
	if len(t.cells) == taskCells {
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
// pin and nothing else. Each side's pinned pages become the slot's side, no
// row copied, and the entries, mapped to cells over the two sides, are cut
// into runs.
//
// The cluster's runs fill the window's current slot and all ship before
// JoinCluster returns. It then retires the previous call's runs, waiting for
// them, and makes their slot the current one. So the workers chew on this
// cluster while the caller unpins it and pins the next, and a cluster's
// pages may still be read after the caller has unpinned them (see Exec).
// The last cluster's runs are retired by Flush.
func (x *Exec) JoinCluster(r, s *Dataset, c *cluster.Cluster, j ObjectJoiner) error {
	sl := &x.slots[x.cur]
	rows, cols := c.Rows(), c.Cols()
	if err := x.pinnedPages(&sl.r, r.File, rows); err != nil {
		return err
	}
	if err := x.pinnedPages(&sl.s, s.File, cols); err != nil {
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
	if blockKernel(j) {
		x.eng.Metrics.ClusterBatch(len(sl.cells), sl.r.Block.Rows()+sl.s.Block.Rows())
	}
	for lo := 0; lo < len(sl.cells); lo += taskCells {
		hi := min(lo+taskCells, len(sl.cells))
		t := x.newRun(j)
		t.in, t.cells = &sl.cellSet, sl.cells[lo:hi:hi]
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

// pinnedPages refills side with the given pinned pages of file, in order.
func (x *Exec) pinnedPages(side *Side, file disk.FileID, pages []int) error {
	side.reset()
	for _, p := range pages {
		pg, err := x.Pool.Pinned(disk.PageAddr{File: file, Page: p})
		if err != nil {
			return err
		}
		side.add(pg)
	}
	return nil
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
