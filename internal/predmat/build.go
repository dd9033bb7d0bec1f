package predmat

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"pmjoin/internal/geom"
	"pmjoin/internal/index"
	"pmjoin/internal/kernel"
	"pmjoin/internal/pool"
)

// Predictor lower-bounds the distance between any object stored under MBR a
// of the first dataset and any object stored under MBR b of the second.
// MinDist under a vector norm is the canonical instance (Table 1); the
// MRS-index frequency distance is another.
type Predictor interface {
	LowerBound(a, b geom.MBR) float64
}

// NormPredictor adapts a vector norm's MinDist as the lower-bounding
// predictor for point, spatial, and time-series data.
type NormPredictor struct {
	Norm geom.Norm
	// Scale multiplies MinDist; dimensionality-reducing indexes (e.g. the
	// MR-index PAA features) use it to restore the original-space bound.
	Scale float64
}

// LowerBound implements Predictor.
func (p NormPredictor) LowerBound(a, b geom.MBR) float64 {
	return p.scale() * p.Norm.MinDist(a, b)
}

// scale is Scale, 0 meaning 1.
func (p NormPredictor) scale() float64 {
	if p.Scale == 0 {
		return 1
	}
	return p.Scale
}

// MBRTest returns the one MBR test of a join at threshold eps,
// pred.LowerBound(a, b) <= eps, which Build and the BFRJ baseline both
// apply. For a NormPredictor of positive scale it is internal/kernel's
// bound: allocation-free, early-abandoning and bit-identical to the
// comparison, so no matrix depends on which form ran. withinNonEmpty is
// within for two boxes the caller knows to be non-empty, which the kernel
// decides without re-testing their emptiness.
func MBRTest(pred Predictor, eps float64) (within, withinNonEmpty func(a, b geom.MBR) bool) {
	if np, ok := pred.(NormPredictor); ok {
		if kb := kernel.NewBound(np.Norm, np.scale(), eps); kb != nil {
			return kb.Within, kb.WithinNonEmpty
		}
	}
	within = func(a, b geom.MBR) bool { return pred.LowerBound(a, b) <= eps }
	return within, within
}

// DefaultFilterDepth is the paper's default bound k on the number of filter
// refinement iterations (§5.1). The filter runs at most k rounds, and fewer
// when a round cannot pay for itself (roundPays, roundDropped).
const DefaultFilterDepth = 5

// BuildOptions tunes prediction-matrix construction.
type BuildOptions struct {
	// FilterDepth bounds the refinement rounds of the Figure 2 filter: a
	// sweep runs at most FilterDepth rounds, and stops earlier when a round
	// cannot pay for itself. 0 disables filtering (useful for the ablation
	// benchmark).
	FilterDepth int
	// Stats, when non-nil, receives construction counters.
	Stats *BuildStats
	// Runner, when non-nil, runs recursive sub-sweeps concurrently, and
	// Build waits on it. The resulting matrix and stats are independent of
	// execution order: marks are idempotent set insertions, what a sweep
	// tests depends on its own participants only, and every counter is an
	// order-independent integer sum.
	Runner *pool.Group
	// Ctx, when non-nil, cancels the build: once it is done no further
	// sweep starts, and Build returns its error.
	Ctx context.Context
}

// BuildStats counts work done during construction.
type BuildStats struct {
	SweepEvents   int64 // endpoint events processed
	PairTests     int64 // box pair intersection tests in sweeps
	FilterDropped int64 // boxes removed by the Figure 2 filter
	Recursions    int64 // recursive PM invocations
}

// Build constructs the prediction matrix for joining datasets indexed by r
// and s with threshold eps, using pred as the lower-bounding predictor.
//
// It implements Figure 1: MBRs are extended by eps/2 in every dimension and
// a plane sweep over first-coordinate endpoints finds intersecting pairs;
// intersecting internal pairs recurse into their children; intersecting leaf
// pairs additionally pass the predictor bound before being marked. What the
// sweeps ask of a node's box is decided once, in a table that every sweep
// reads (newTable).
//
// Deviation from the figure, for correctness: the filter runs on the
// *extended* MBRs (the figure filters before extending, which could drop
// pages within eps of each other but not intersecting). Filtering after
// extension preserves Theorem 1.
func Build(r, s *index.Node, rPages, sPages int, eps float64, pred Predictor, opts BuildOptions) (*Matrix, error) {
	if r == nil || s == nil {
		return nil, fmt.Errorf("predmat: nil index root")
	}
	if eps < 0 {
		return nil, fmt.Errorf("predmat: negative epsilon %g", eps)
	}
	m := NewMatrix(rPages, sPages)
	b := newBuilder(eps, pred, opts)
	b.run(r, s)
	if b.stopped() {
		return nil, opts.Ctx.Err()
	}
	// Size the matrix's mark buffer once: grown mark by mark, a large
	// slice grows by a quarter at a time and allocates about five times
	// what it ends up holding.
	n := 0
	for _, ms := range b.marks {
		n += len(ms)
	}
	m.pending = slices.Grow(m.pending, n)
	for _, ms := range b.marks {
		for _, e := range ms {
			m.Mark(e.R, e.C)
		}
	}
	// Fold the buffered marks in before the matrix escapes: from here on it
	// is read-only and safe to share across goroutines (joinapi caches it).
	return m.Finalize(), nil
}

// newBuilder returns the builder of one Build at threshold eps.
func newBuilder(eps float64, pred Predictor, opts BuildOptions) *builder {
	b := &builder{opts: opts, half: eps / 2}
	if opts.Ctx != nil {
		b.done = opts.Ctx.Done()
	}
	b.within, b.withinFull = MBRTest(pred, eps)
	return b
}

// run sweeps r against s, leaving every sweep's marks in b.marks and the
// counters in opts.Stats.
func (b *builder) run(r, s *index.Node) {
	b.dim = max(maxDim(r), maxDim(s))
	rt, rShared := newTable(r, b.dim, b.half)
	st, sShared := rt, rShared
	if s != r {
		st, sShared = newTable(s, b.dim, b.half)
	}
	b.saturate = rShared || sShared
	b.sweep(rt, st)
	b.opts.Runner.Wait()
	if b.opts.Stats != nil {
		b.opts.Stats.SweepEvents += b.sweepEvents.Load()
		b.opts.Stats.PairTests += b.pairTests.Load()
		b.opts.Stats.FilterDropped += b.filterDropped.Load()
		b.opts.Stats.Recursions += b.recursions.Load()
	}
}

type builder struct {
	opts BuildOptions
	// dim is the dimensionality every sweep computes in: the largest of any
	// node's. A node of fewer dimensions is the canonical empty box.
	dim int
	// half is ε/2, by which the sweep extends every box in every direction.
	half float64
	// saturate: in either index two neighbouring children of a node lie
	// within one page, so pages hold more than one leaf and a pair of nodes
	// that each lie within one page asks about one cell, which a sweep
	// answers once (handlePair). With one leaf a page — every STR tree — it
	// is off and the sweeps run as they always have.
	saturate bool
	// within decides pred.LowerBound(a, b) <= eps (MBRTest); withinFull is
	// within for two non-empty MBRs.
	within, withinFull func(a, b geom.MBR) bool
	// done is the build context's Done channel: nil, never closed, without
	// one.
	done <-chan struct{}

	// markMu guards marks, one batch for each sweep that found any. Build
	// folds them into the matrix once every sweep has returned; a mark is an
	// idempotent set insertion, so the matrix does not depend on the order
	// the batches arrived in.
	markMu sync.Mutex
	marks  [][]Entry
	// Counters accumulate per-sweep totals; each sweep batches its local
	// counts into one atomic add, so the hot event loop stays cheap.
	sweepEvents   atomic.Int64
	pairTests     atomic.Int64
	filterDropped atomic.Int64
	recursions    atomic.Int64
}

// flush folds one sweep's local counters into the builder totals.
func (b *builder) flush(st *BuildStats) {
	if b.opts.Stats == nil {
		return
	}
	b.sweepEvents.Add(st.SweepEvents)
	b.pairTests.Add(st.PairTests)
	b.filterDropped.Add(st.FilterDropped)
	b.recursions.Add(st.Recursions)
}

// stopped reports whether the build's context is done.
func (b *builder) stopped() bool {
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

// span is a box as two rows of corner coordinates, one value a dimension.
type span struct {
	lo, hi []float64
}

// isEmpty reports whether the box contains no point: it has no dimensions,
// or is inverted in one.
func (a span) isEmpty() bool {
	for d, lo := range a.lo {
		if lo > a.hi[d] {
			return true
		}
	}
	return len(a.lo) == 0
}

// setEmpty makes a the canonical empty box: inverted in every dimension, so
// that any extension fixes it.
func (a span) setEmpty() {
	for d := range a.lo {
		a.lo[d] = math.Inf(1)
		a.hi[d] = math.Inf(-1)
	}
}

// disjoint reports whether two non-empty boxes share no point (as closed
// rectangles).
func (a span) disjoint(o span) bool {
	n := len(a.lo)
	aLo, aHi, oLo, oHi := a.lo, a.hi[:n], o.lo[:n], o.hi[:n]
	for d := range aLo {
		if aHi[d] < oLo[d] || oHi[d] < aLo[d] {
			return true
		}
	}
	return false
}

// setIntersection makes a the intersection of x and y and reports whether it
// is non-empty; an empty operand makes it empty (and leaves a unspecified).
// The builtin min and max agree with math.Min and math.Max bit for bit.
func (a span) setIntersection(x, y span) bool {
	if x.isEmpty() || y.isEmpty() {
		return false
	}
	for d := range a.lo {
		a.lo[d] = max(x.lo[d], y.lo[d])
		a.hi[d] = min(x.hi[d], y.hi[d])
	}
	return !a.isEmpty()
}

// xnode is an index node as every sweep sees it, with what the sweeps ask
// of its box answered once per build. Sibling xnodes are contiguous, so a
// node's children are one window of the table and a sweep reads its
// participants in place.
type xnode struct {
	node *index.Node
	// span is the node's own MBR, or the canonical empty box when the MBR
	// has fewer dimensions than the build. Sweeps extend it by half where
	// they read it, with the same v−half and hi+half expressions every time.
	span
	// empty: the extended box contains no point, so it intersects nothing.
	empty bool
	// rawEmpty: a leaf whose own MBR is empty, which the predictor decides
	// by its empty-box rule.
	rawEmpty bool
	// skip: an internal node with an empty MBR, which no sweep loads.
	skip bool
	// page is the one page every leaf under the node lies on, or -1 when
	// they lie on more than one.
	page     int32
	children []xnode
}

// overlaps reports whether the two boxes, extended by half in every
// direction, intersect as closed rectangles; an empty box intersects
// nothing.
func (a *xnode) overlaps(o *xnode, half float64) bool {
	if a.empty || o.empty {
		return false
	}
	n := len(a.lo)
	aLo, aHi, oLo, oHi := a.lo, a.hi[:n], o.lo[:n], o.hi[:n]
	for d := range aLo {
		if aHi[d]+half < oLo[d]-half || oHi[d]+half < aLo[d]-half {
			return false
		}
	}
	return true
}

// maxDim returns the largest dimensionality of any MBR under n.
func maxDim(n *index.Node) int {
	d := n.MBR.Dim()
	for _, c := range n.Children {
		d = max(d, maxDim(c))
	}
	return d
}

// newTable builds the xnode tree that mirrors the index under root, in one
// allocation, and returns the root's one-element window. It decides once
// per node what every sweep used to decide on every load: whether the box
// extended by half is empty, which nodes are left out, and which page a
// node lies within. shared reports whether two neighbouring children of a
// node lie within one page, so that the page holds more than one leaf.
func newTable(root *index.Node, dim int, half float64) (top []xnode, shared bool) {
	canon := span{lo: make([]float64, dim), hi: make([]float64, dim)}
	canon.setEmpty()
	t := tableFill{nodes: make([]xnode, root.CountNodes()), canon: canon, dim: dim, half: half}
	top = t.take(1)
	t.fill(top, []*index.Node{root})
	return top, t.shared
}

// tableFill hands out the table's nodes in order.
type tableFill struct {
	nodes  []xnode
	canon  span // the canonical empty box, shared by every node that is one
	dim    int
	half   float64
	shared bool // neighbouring children share a page
}

// take returns the next n nodes of the table.
func (t *tableFill) take(n int) []xnode {
	w := t.nodes[:n:n]
	t.nodes = t.nodes[n:]
	return w
}

// fill sets dst[i] from src[i], and then each one's children, depth first.
func (t *tableFill) fill(dst []xnode, src []*index.Node) {
	dim := t.dim
	for i, n := range src {
		x := &dst[i]
		x.node = n
		if dim > 0 && n.MBR.Dim() == dim {
			x.span = span{lo: n.MBR.Min, hi: n.MBR.Max[:dim]}
			for d, v := range x.lo {
				x.empty = x.empty || v-t.half > x.hi[d]+t.half
			}
		} else {
			x.span = t.canon
			x.empty = true
		}
		if n.IsLeaf() {
			x.rawEmpty = n.MBR.IsEmpty()
			x.page = -1
			if n.Page >= 0 && n.Page <= math.MaxInt32 {
				x.page = int32(n.Page)
			}
		} else {
			x.skip = n.MBR.IsEmpty()
		}
	}
	for i, n := range src {
		if n.IsLeaf() {
			continue
		}
		x := &dst[i]
		x.children = t.take(len(n.Children))
		t.fill(x.children, n.Children)
		x.page = x.children[0].page
		for k := 1; k < len(x.children); k++ {
			p := x.children[k].page
			t.shared = t.shared || (p >= 0 && p == x.children[k-1].page)
			if p != x.page {
				x.page = -1
			}
		}
	}
}

// endpoint is one sweep event on the first coordinate.
type endpoint struct {
	x    float64
	box  int32 // index into the sweep's boxes: R side first, then S
	left bool
}

// filterSide is one dataset's boxes inside filter: alive lists the surviving
// boxes in order and row k of lo/hi (dim values a row) is the region box
// alive[k] has been shrunk to.
type filterSide struct {
	alive  []int32
	lo, hi []float64
}

// region returns row k.
func (fs *filterSide) region(k, dim int) span {
	return span{lo: fs.lo[k*dim : (k+1)*dim], hi: fs.hi[k*dim : (k+1)*dim]}
}

// sweepScratch is the working memory of one sweep. Everything a sweep needs
// is carved out of these slices, which keep their capacity from sweep to
// sweep, so the per-box and per-round cost of a build is arithmetic, not
// allocation. A recursive sub-sweep takes its own scratch from the pool.
type sweepScratch struct {
	boxes  []*xnode // the sweep's participants, R side first
	sides  [2]filterSide
	covers []float64 // filter's six covers: B_R, B_S and their intersections
	events []endpoint
	active [2][]int32 // boxes the sweep line crosses, by side
	slot   []int32    // each box's position in its active list, -1 when absent
	marks  []Entry
}

var scratchPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// grow returns s with length n, reallocating only when capacity falls short.
// The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// load lists the sweep's participants — rNodes then sNodes, empty internal
// nodes left out — and returns how many are R boxes.
func (sc *sweepScratch) load(rNodes, sNodes []xnode) (nR int) {
	sc.boxes = sc.boxes[:0]
	for side, nodes := range [2][]xnode{rNodes, sNodes} {
		for i := range nodes {
			if !nodes[i].skip {
				sc.boxes = append(sc.boxes, &nodes[i])
			}
		}
		if side == 0 {
			nR = len(sc.boxes)
		}
	}
	return nR
}

// sweep runs one level of the hierarchical plane sweep over the given node
// sets (Figure 1 steps 1-5). It only reads the (immutable) node table and
// hands its marks over under the mark mutex — once, with every mark it found
// — so concurrent sweeps need no coordination beyond that and their local
// stats, flushed once on return. Once the build's context is done, a sweep
// returns before it starts, so a cancelled build stops within a sweep.
func (b *builder) sweep(rNodes, sNodes []xnode) {
	if b.stopped() {
		return
	}
	var st BuildStats
	defer b.flush(&st)
	st.Recursions++
	if len(rNodes) == 0 || len(sNodes) == 0 {
		return
	}
	sc := scratchPool.Get().(*sweepScratch)
	defer scratchPool.Put(sc)
	nR := sc.load(rNodes, sNodes)
	boxes := sc.boxes

	rAlive, sAlive, _ := b.filter(sc, nR, &st)
	if len(rAlive) == 0 || len(sAlive) == 0 {
		return
	}
	if b.dim == 0 {
		return // nothing but empty leaves: no first coordinate to sweep on
	}

	events := sc.events[:0]
	for _, alive := range [2][]int32{rAlive, sAlive} {
		for _, i := range alive {
			events = append(events,
				endpoint{x: boxes[i].lo[0] - b.half, box: i, left: true},
				endpoint{x: boxes[i].hi[0] + b.half, box: i, left: false})
		}
	}
	sc.events = events
	// Process left endpoints before right endpoints at equal x so touching
	// boxes are seen as intersecting (closed rectangles). Remaining ties go
	// by box, which makes the order total: the one a stable sort of the
	// events as appended would give.
	slices.SortFunc(events, func(a, c endpoint) int {
		switch {
		case a.x < c.x:
			return -1
		case c.x < a.x:
			return 1
		case a.left != c.left:
			if a.left {
				return -1
			}
			return 1
		}
		return int(a.box - c.box)
	})

	sc.slot = grow(sc.slot, len(boxes))
	for i := range sc.slot {
		sc.slot[i] = -1
	}
	sc.active[0], sc.active[1] = sc.active[0][:0], sc.active[1][:0]
	sc.marks = sc.marks[:0]
	for _, ev := range events {
		st.SweepEvents++
		side := 0
		if int(ev.box) >= nR {
			side = 1
		}
		if !ev.left {
			sc.deactivate(side, ev.box)
			continue
		}
		sc.slot[ev.box] = int32(len(sc.active[side]))
		sc.active[side] = append(sc.active[side], ev.box)
		bx := boxes[ev.box]
		for _, o := range sc.active[1-side] {
			st.PairTests++
			other := boxes[o]
			if !bx.overlaps(other, b.half) {
				continue
			}
			if side == 0 {
				b.handlePair(bx, other, sc, &st)
			} else {
				b.handlePair(other, bx, sc, &st)
			}
		}
	}
	if len(sc.marks) > 0 {
		ms := slices.Clone(sc.marks)
		b.markMu.Lock()
		b.marks = append(b.marks, ms)
		b.markMu.Unlock()
	}
}

// deactivate takes box i off its side's active list (swap-remove). A box
// that is not on it — inverted on the first coordinate, so its right
// endpoint came first — is left alone.
func (sc *sweepScratch) deactivate(side int, i int32) {
	p := sc.slot[i]
	if p < 0 {
		return
	}
	act := sc.active[side]
	last := act[len(act)-1]
	act[p], sc.slot[last] = last, p
	sc.active[side] = act[:len(act)-1]
	sc.slot[i] = -1
}

// handlePair processes one intersecting extended pair: leaf pairs that pass
// the predictor are added to the sweep's marks, internal pairs descend (one
// side at a time when heights differ). Descents are tasks of the Runner, so
// with one the recursive sub-sweeps fan out across the worker pool.
//
// Page-pair saturation: when saturate is on and each node lies within one
// page, everything under the pair can mark one cell only. The sweep keeps
// its marks sorted and distinct, skips a pair whose cell it holds, and
// decides any other with reaches, which stops at the first leaf pair that
// passes — no sub-sweep, no filter. The set is the sweep's own, never
// shared with other sweeps, so what a sweep tests depends on its
// participants only and the counters do not depend on the Runner.
func (b *builder) handlePair(rx, sx *xnode, sc *sweepScratch, st *BuildStats) {
	if b.saturate && rx.page >= 0 && sx.page >= 0 {
		cell := Entry{R: int(rx.page), C: int(sx.page)}
		i, held := slices.BinarySearchFunc(sc.marks, cell, compareEntries)
		if !held && b.reaches(rx, sx, st) {
			sc.marks = slices.Insert(sc.marks, i, cell)
		}
		return
	}
	rNodes, sNodes := rx.children, sx.children
	switch rn, sn := rx.node, sx.node; {
	case rn.IsLeaf() && sn.IsLeaf():
		if b.passes(rx, sx) {
			sc.marks = append(sc.marks, Entry{R: rn.Page, C: sn.Page})
		}
		return
	case rn.IsLeaf():
		rNodes = []xnode{*rx}
	case sn.IsLeaf():
		sNodes = []xnode{*sx}
	}
	b.opts.Runner.Go(func() { b.sweep(rNodes, sNodes) })
}

// passes reports whether the leaf pair rx, sx passes the predictor.
func (b *builder) passes(rx, sx *xnode) bool {
	within := b.withinFull
	if rx.rawEmpty || sx.rawEmpty {
		within = b.within
	}
	return within(rx.node.MBR, sx.node.MBR)
}

// reaches reports whether a leaf pair under the intersecting extended pair
// rx, sx passes the predictor, where the leaves are reached as the sweeps
// reach them: through intersecting pairs of children (of one side only when
// heights differ), leaving out the nodes a sweep does not load. It is a
// depth-first walk that stops at the first leaf pair that passes, and it
// counts each child pair it tests as a pair test.
func (b *builder) reaches(rx, sx *xnode, st *BuildStats) bool {
	switch rLeaf, sLeaf := rx.node.IsLeaf(), sx.node.IsLeaf(); {
	case rLeaf && sLeaf:
		return b.passes(rx, sx)
	case rLeaf:
		for j := range sx.children {
			if b.childReaches(rx, &sx.children[j], st) {
				return true
			}
		}
	case sLeaf:
		for i := range rx.children {
			if b.childReaches(&rx.children[i], sx, st) {
				return true
			}
		}
	default:
		for i := range rx.children {
			for j := range sx.children {
				if b.childReaches(&rx.children[i], &sx.children[j], st) {
					return true
				}
			}
		}
	}
	return false
}

// childReaches is one step of reaches: the pair test of rx and sx, unless a
// sweep would leave either out, and the walk below them if they intersect.
func (b *builder) childReaches(rx, sx *xnode, st *BuildStats) bool {
	if rx.skip || sx.skip {
		return false
	}
	st.PairTests++
	return rx.overlaps(sx, b.half) && b.reaches(rx, sx, st)
}

// compareEntries orders entries by row, then column.
func compareEntries(a, c Entry) int {
	return cmp.Or(cmp.Compare(a.R, c.R), cmp.Compare(a.C, c.C))
}

// roundPays reports whether a filter round over nR × nS live boxes in dim
// dimensions can save more than it costs. A round makes about five passes of
// dim values over every live box; the sweep it prunes tests at most nR·nS
// pairs, and a pair test stops at the first dimension that separates the
// boxes. So a round that could at best save no more pair tests than it reads
// box rows is skipped — which, at 60-d, is every sweep of fewer than 120
// boxes a side.
func roundPays(nR, nS, dim int) bool {
	return nR*nS > (nR+nS)*dim
}

// roundDropped reports whether a filter round that left after of its before
// live boxes dropped enough of them — a quarter — for another to be worth
// trying: a round that drops few boxes leaves the next little to prune.
func roundDropped(before, after int) bool {
	return 4*(before-after) >= before
}

// filter implements the iterative refinement of Figure 2 on the extended
// boxes: shrink both sides to the region B_RS = B_R ∩ B_S that can contain
// intersecting pairs, and drop boxes that do not intersect it. It runs at
// most FilterDepth rounds, each only while roundPays, and stops after a
// round that fails roundDropped. It returns the surviving boxes of each
// side, in order, and the number of rounds it ran.
//
// The shrunken regions are working copies used only for filtering decisions
// (sweeping and marking still use the extended and the original MBRs); they
// live in flat rows that each round rewrites and compacts in place.
func (b *builder) filter(sc *sweepScratch, nR int, st *BuildStats) (rAlive, sAlive []int32, rounds int) {
	boxes, dim := sc.boxes, b.dim
	r, s := &sc.sides[0], &sc.sides[1]
	for i, fs := range [2]*filterSide{r, s} {
		first, n := 0, nR
		if i == 1 {
			first, n = nR, len(boxes)-nR
		}
		fs.alive = grow(fs.alive, n)
		for k := range fs.alive {
			fs.alive[k] = int32(first + k)
		}
	}
	depth := b.opts.FilterDepth
	if depth <= 0 || !roundPays(len(r.alive), len(s.alive), dim) {
		return r.alive, s.alive, 0
	}
	for _, fs := range [2]*filterSide{r, s} {
		fs.lo = grow(fs.lo, dim*len(fs.alive))
		fs.hi = grow(fs.hi, dim*len(fs.alive))
		for k, i := range fs.alive {
			row := fs.region(k, dim)
			for d, v := range boxes[i].lo {
				row.lo[d], row.hi[d] = v-b.half, boxes[i].hi[d]+b.half
			}
		}
	}
	sc.covers = grow(sc.covers, 12*dim)
	var covers [6]span
	for k := range covers {
		covers[k] = span{lo: sc.covers[2*k*dim : (2*k+1)*dim], hi: sc.covers[(2*k+1)*dim : (2*k+2)*dim]}
	}
	bigR, bigS, bb, bR, bS, bRS := covers[0], covers[1], covers[2], covers[3], covers[4], covers[5]
	dropAll := func() {
		st.FilterDropped += int64(len(r.alive) + len(s.alive))
		r.alive, s.alive = r.alive[:0], s.alive[:0]
	}
	for rounds < depth && roundPays(len(r.alive), len(s.alive), dim) {
		rounds++
		live := len(r.alive) + len(s.alive)
		r.cover(boxes, dim, bigR)
		s.cover(boxes, dim, bigS)
		if !bb.setIntersection(bigR, bigS) {
			dropAll()
			break
		}
		// B_R covers B ∩ R_i for all i; B_S similarly.
		r.coverClipped(boxes, dim, bb, bR)
		s.coverClipped(boxes, dim, bb, bS)
		if !bRS.setIntersection(bR, bS) {
			dropAll()
			break
		}
		r.shrink(boxes, dim, bRS, st)
		s.shrink(boxes, dim, bRS, st)
		if !roundDropped(live, len(r.alive)+len(s.alive)) {
			break
		}
	}
	return r.alive, s.alive, rounds
}

// cover sets out to the smallest box covering every non-empty region of the
// side. With nothing to cover the result is the canonical empty box.
func (fs *filterSide) cover(boxes []*xnode, dim int, out span) {
	out.setEmpty()
	lo, hi := out.lo, out.hi
	for k, i := range fs.alive {
		if boxes[i].empty {
			continue
		}
		row := fs.region(k, dim)
		rowLo, rowHi := row.lo[:len(lo)], row.hi[:len(lo)]
		for d := range lo {
			if rowLo[d] < lo[d] {
				lo[d] = rowLo[d]
			}
			if rowHi[d] > hi[d] {
				hi[d] = rowHi[d]
			}
		}
	}
}

// coverClipped is cover over the regions clipped to the non-empty box clip
// first; a region the clip empties is skipped.
func (fs *filterSide) coverClipped(boxes []*xnode, dim int, clip, out span) {
	out.setEmpty()
	lo, hi := out.lo, out.hi
	clipLo, clipHi := clip.lo[:len(lo)], clip.hi[:len(lo)]
	for k, i := range fs.alive {
		if boxes[i].empty {
			continue
		}
		row := fs.region(k, dim)
		if row.disjoint(clip) {
			continue
		}
		rowLo, rowHi := row.lo[:len(lo)], row.hi[:len(lo)]
		for d := range lo {
			if l := max(clipLo[d], rowLo[d]); l < lo[d] {
				lo[d] = l
			}
			if h := min(clipHi[d], rowHi[d]); h > hi[d] {
				hi[d] = h
			}
		}
	}
}

// shrink clips every region of the side to the non-empty box to, dropping
// the boxes whose region misses it, and compacts the survivors in place.
func (fs *filterSide) shrink(boxes []*xnode, dim int, to span, st *BuildStats) {
	w := 0
	toLo, toHi := to.lo[:dim], to.hi[:dim]
	for k, i := range fs.alive {
		row := fs.region(k, dim)
		if boxes[i].empty || row.disjoint(to) {
			st.FilterDropped++
			continue
		}
		out := fs.region(w, dim)
		rowLo, rowHi, outLo, outHi := row.lo, row.hi[:dim], out.lo[:dim], out.hi[:dim]
		for d, lo := range rowLo {
			outLo[d], outHi[d] = max(lo, toLo[d]), min(rowHi[d], toHi[d])
		}
		fs.alive[w] = i
		w++
	}
	fs.alive = fs.alive[:w]
}
