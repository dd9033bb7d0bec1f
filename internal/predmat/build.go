package predmat

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"pmjoin/internal/geom"
	"pmjoin/internal/index"
	"pmjoin/internal/kernel"
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
	s := p.Scale
	if s == 0 {
		s = 1
	}
	return s * p.Norm.MinDist(a, b)
}

// KernelBound returns an allocation-free, early-abandoning test equivalent
// to LowerBound(a, b) <= eps — bit-identical for every input, which is what
// keeps matrices (and therefore Plan) independent of which test Build ran.
// It returns nil when no exact kernel exists (non-positive or NaN Scale);
// callers then keep the LowerBound comparison.
func (p NormPredictor) KernelBound(eps float64) func(a, b geom.MBR) bool {
	s := p.Scale
	if s == 0 {
		s = 1
	}
	b := kernel.NewBound(p.Norm, s, eps)
	if b == nil {
		return nil
	}
	return b.Within
}

// kernelBounder is the optional Predictor refinement Build probes for.
// mrsindex's integer frequency predictor does not implement it — its bound
// is already allocation-light — so only the norm-based predictors take the
// kernel path.
type kernelBounder interface {
	KernelBound(eps float64) func(a, b geom.MBR) bool
}

// DefaultFilterDepth is the paper's default bound k on the number of filter
// refinement iterations (§5.1).
const DefaultFilterDepth = 5

// Runner executes independent construction tasks, possibly concurrently.
// join.WorkerPool satisfies it; injecting the interface keeps goroutine
// spawning inside the join layer's bounded pool.
type Runner interface {
	Run(task func())
}

// BuildOptions tunes prediction-matrix construction.
type BuildOptions struct {
	// FilterDepth bounds the refinement iterations of the Figure 2 filter.
	// 0 disables filtering (useful for the ablation benchmark).
	FilterDepth int
	// Stats, when non-nil, receives construction counters.
	Stats *BuildStats
	// Runner, when non-nil, runs recursive sub-sweeps concurrently. The
	// resulting matrix and stats are independent of execution order: marks
	// are idempotent set insertions and every counter is an
	// order-independent integer sum.
	Runner Runner
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
// pairs additionally pass the predictor bound before being marked.
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
	b := &builder{eps: eps, pred: pred, opts: opts, m: m}
	// Leaf-pair predictor tests run through internal/kernel's exact MBR
	// bound when the predictor offers one.
	b.within = func(a, c geom.MBR) bool { return pred.LowerBound(a, c) <= eps }
	if kb, ok := pred.(kernelBounder); ok {
		if f := kb.KernelBound(eps); f != nil {
			b.within = f
		}
	}
	b.sweep([]*index.Node{r}, []*index.Node{s})
	b.wg.Wait()
	if opts.Stats != nil {
		opts.Stats.SweepEvents += b.sweepEvents.Load()
		opts.Stats.PairTests += b.pairTests.Load()
		opts.Stats.FilterDropped += b.filterDropped.Load()
		opts.Stats.Recursions += b.recursions.Load()
	}
	// Fold the buffered marks in before the matrix escapes: from here on it
	// is read-only and safe to share across goroutines (joinapi caches it).
	return m.Finalize(), nil
}

type builder struct {
	eps  float64
	pred Predictor
	opts BuildOptions
	m    *Matrix
	// within decides pred.LowerBound(a, b) <= eps — through the kernel
	// bound when enabled, which is exact, so the matrix never depends on
	// which path ran.
	within func(a, b geom.MBR) bool

	// markMu guards m: concurrent sub-sweeps may mark the same entry, and
	// Mark is an idempotent sorted insertion, so the resulting matrix is
	// identical regardless of interleaving.
	markMu sync.Mutex
	// wg tracks sub-sweeps handed to the runner.
	wg sync.WaitGroup
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

// spawn runs a recursive sub-sweep, through the runner when one is set.
func (b *builder) spawn(rNodes, sNodes []*index.Node) {
	if b.opts.Runner == nil {
		b.sweep(rNodes, sNodes)
		return
	}
	b.wg.Add(1)
	b.opts.Runner.Run(func() {
		defer b.wg.Done()
		b.sweep(rNodes, sNodes)
	})
}

// span is a box as two rows of corner coordinates, one value a dimension.
// Every box the sweep and the filter compute on is a window of flat scratch.
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

// box is a sweep participant: an index node with its extended MBR. Whether
// that is empty — which every intersection test asks — is decided once, when
// the box is loaded.
type box struct {
	node *index.Node
	span
	empty bool
}

// overlaps reports whether two extended boxes intersect as closed
// rectangles; an empty box intersects nothing.
func (a *box) overlaps(o *box) bool {
	return !a.empty && !o.empty && !a.disjoint(o.span)
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
	boxes   []box
	corners []float64 // the boxes' extended corners, 2·dim values a box
	sides   [2]filterSide
	covers  []float64 // filter's six covers: B_R, B_S and their intersections
	events  []endpoint
	active  [2][]int32 // boxes the sweep line crosses, by side
	slot    []int32    // each box's position in its active list, -1 when absent
	marks   []Entry
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

// load fills the scratch with the sweep's participants — rNodes then sNodes,
// empty internal nodes left out — each extended by half in every direction,
// and returns how many are R boxes and the dimensionality. A box of fewer
// dimensions than the rest (the zero-dimensional MBR of an empty leaf) is
// loaded as the canonical empty box.
func (sc *sweepScratch) load(rNodes, sNodes []*index.Node, half float64) (nR, dim int) {
	for _, nodes := range [2][]*index.Node{rNodes, sNodes} {
		for _, n := range nodes {
			dim = max(dim, n.MBR.Dim())
		}
	}
	sc.boxes = sc.boxes[:0]
	sc.corners = grow(sc.corners, 2*dim*(len(rNodes)+len(sNodes)))
	corners := sc.corners
	for side, nodes := range [2][]*index.Node{rNodes, sNodes} {
		for _, n := range nodes {
			if !n.IsLeaf() && n.MBR.IsEmpty() {
				continue
			}
			bx := box{node: n, span: span{lo: corners[:dim:dim], hi: corners[dim : 2*dim : 2*dim]}}
			corners = corners[2*dim:]
			if dim > 0 && n.MBR.Dim() == dim {
				nHi := n.MBR.Max[:dim]
				for d, v := range n.MBR.Min {
					l, h := v-half, nHi[d]+half
					bx.lo[d], bx.hi[d] = l, h
					bx.empty = bx.empty || l > h
				}
			} else {
				bx.setEmpty()
				bx.empty = true
			}
			sc.boxes = append(sc.boxes, bx)
		}
		if side == 0 {
			nR = len(sc.boxes)
		}
	}
	return nR, dim
}

// sweep runs one level of the hierarchical plane sweep over the given node
// sets (Figure 1 steps 1-5). It only reads the (immutable) index nodes and
// writes through the mark mutex — once, with every mark it found — so
// concurrent sweeps need no coordination beyond that and their local stats,
// flushed once on return.
func (b *builder) sweep(rNodes, sNodes []*index.Node) {
	var st BuildStats
	defer b.flush(&st)
	st.Recursions++
	if len(rNodes) == 0 || len(sNodes) == 0 {
		return
	}
	sc := scratchPool.Get().(*sweepScratch)
	defer scratchPool.Put(sc)
	nR, dim := sc.load(rNodes, sNodes, b.eps/2)
	boxes := sc.boxes

	rAlive, sAlive := b.filter(sc, nR, dim, &st)
	if len(rAlive) == 0 || len(sAlive) == 0 {
		return
	}
	if dim == 0 {
		return // nothing but empty leaves: no first coordinate to sweep on
	}

	events := sc.events[:0]
	for _, alive := range [2][]int32{rAlive, sAlive} {
		for _, i := range alive {
			events = append(events,
				endpoint{x: boxes[i].lo[0], box: i, left: true},
				endpoint{x: boxes[i].hi[0], box: i, left: false})
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
		bx := &boxes[ev.box]
		for _, o := range sc.active[1-side] {
			st.PairTests++
			other := &boxes[o]
			if !bx.overlaps(other) {
				continue
			}
			if side == 0 {
				b.handlePair(bx.node, other.node, &sc.marks)
			} else {
				b.handlePair(other.node, bx.node, &sc.marks)
			}
		}
	}
	if len(sc.marks) > 0 {
		b.markMu.Lock()
		for _, e := range sc.marks {
			b.m.Mark(e.R, e.C)
		}
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
// side at a time when heights differ). Descents go through spawn, so with a
// Runner the recursive sub-sweeps fan out across the worker pool.
func (b *builder) handlePair(rn, sn *index.Node, marks *[]Entry) {
	switch {
	case rn.IsLeaf() && sn.IsLeaf():
		if b.within(rn.MBR, sn.MBR) {
			*marks = append(*marks, Entry{R: rn.Page, C: sn.Page})
		}
	case rn.IsLeaf():
		b.spawn([]*index.Node{rn}, sn.Children)
	case sn.IsLeaf():
		b.spawn(rn.Children, []*index.Node{sn})
	default:
		b.spawn(rn.Children, sn.Children)
	}
}

// filter implements the iterative refinement of Figure 2 on the extended
// boxes: shrink both sides to the region B_RS = B_R ∩ B_S that can contain
// intersecting pairs, and drop boxes that do not intersect it. It iterates
// until a fixpoint or FilterDepth rounds and returns the surviving boxes of
// each side, in order.
//
// The shrunken regions are working copies used only for filtering decisions
// (sweeping and marking still use the extended and the original MBRs); they
// live in flat rows that each round rewrites and compacts in place.
func (b *builder) filter(sc *sweepScratch, nR, dim int, st *BuildStats) (rAlive, sAlive []int32) {
	boxes := sc.boxes
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
	if depth <= 0 || len(r.alive) == 0 || len(s.alive) == 0 {
		return r.alive, s.alive
	}
	for _, fs := range [2]*filterSide{r, s} {
		fs.lo = grow(fs.lo, dim*len(fs.alive))
		fs.hi = grow(fs.hi, dim*len(fs.alive))
		for k, i := range fs.alive {
			copy(fs.lo[k*dim:], boxes[i].lo)
			copy(fs.hi[k*dim:], boxes[i].hi)
		}
	}
	sc.covers = grow(sc.covers, 12*dim)
	var covers [6]span
	for k := range covers {
		covers[k] = span{lo: sc.covers[2*k*dim : (2*k+1)*dim], hi: sc.covers[(2*k+1)*dim : (2*k+2)*dim]}
	}
	bigR, bigS, bb, bR, bS, bRS := covers[0], covers[1], covers[2], covers[3], covers[4], covers[5]
	dropAll := func() ([]int32, []int32) {
		st.FilterDropped += int64(len(r.alive) + len(s.alive))
		return nil, nil
	}
	for iter := 0; iter < depth; iter++ {
		r.cover(boxes, dim, bigR)
		s.cover(boxes, dim, bigS)
		if !bb.setIntersection(bigR, bigS) {
			return dropAll()
		}
		// B_R covers B ∩ R_i for all i; B_S similarly.
		r.coverClipped(boxes, dim, bb, bR)
		s.coverClipped(boxes, dim, bb, bS)
		if !bRS.setIntersection(bR, bS) {
			return dropAll()
		}
		changedR := r.shrink(boxes, dim, bRS, st)
		changedS := s.shrink(boxes, dim, bRS, st)
		if len(r.alive) == 0 || len(s.alive) == 0 || !(changedR || changedS) {
			break
		}
	}
	return r.alive, s.alive
}

// cover sets out to the smallest box covering every non-empty region of the
// side. With nothing to cover the result is the canonical empty box.
func (fs *filterSide) cover(boxes []box, dim int, out span) {
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
func (fs *filterSide) coverClipped(boxes []box, dim int, clip, out span) {
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
// the boxes whose region misses it, compacts the survivors in place, and
// reports whether anything was dropped or became smaller.
func (fs *filterSide) shrink(boxes []box, dim int, to span, st *BuildStats) (changed bool) {
	w := 0
	toLo, toHi := to.lo[:dim], to.hi[:dim]
	for k, i := range fs.alive {
		row := fs.region(k, dim)
		if boxes[i].empty || row.disjoint(to) {
			changed = true
			st.FilterDropped++
			continue
		}
		out := fs.region(w, dim)
		rowLo, rowHi, outLo, outHi := row.lo, row.hi[:dim], out.lo[:dim], out.hi[:dim]
		for d, lo := range rowLo {
			hi := rowHi[d]
			l, h := max(lo, toLo[d]), min(hi, toHi[d])
			if l != lo || h != hi {
				changed = true
			}
			outLo[d], outHi[d] = l, h
		}
		fs.alive[w] = i
		w++
	}
	fs.alive = fs.alive[:w]
	return changed
}
