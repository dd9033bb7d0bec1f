package predmat

import (
	"fmt"
	"sort"
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

// box is a sweep participant: an index node with its extended MBR.
type box struct {
	node *index.Node
	ext  geom.MBR
	from int // 0 = R side, 1 = S side
}

// endpoint is one sweep event on the first coordinate.
type endpoint struct {
	x    float64
	left bool
	b    *box
}

// sweep runs one level of the hierarchical plane sweep over the given node
// sets (Figure 1 steps 1-5). It only reads the (immutable) index nodes and
// writes through the mark mutex, so concurrent sweeps need no coordination
// beyond their local stats, flushed once on return.
func (b *builder) sweep(rNodes, sNodes []*index.Node) {
	var st BuildStats
	defer b.flush(&st)
	st.Recursions++
	if len(rNodes) == 0 || len(sNodes) == 0 {
		return
	}
	half := b.eps / 2
	rBoxes := make([]*box, 0, len(rNodes))
	for _, n := range rNodes {
		if n.MBR.IsEmpty() && !n.IsLeaf() {
			continue
		}
		rBoxes = append(rBoxes, &box{node: n, ext: n.MBR.Extended(half), from: 0})
	}
	sBoxes := make([]*box, 0, len(sNodes))
	for _, n := range sNodes {
		if n.MBR.IsEmpty() && !n.IsLeaf() {
			continue
		}
		sBoxes = append(sBoxes, &box{node: n, ext: n.MBR.Extended(half), from: 1})
	}

	rBoxes, sBoxes = b.filter(rBoxes, sBoxes, &st)
	if len(rBoxes) == 0 || len(sBoxes) == 0 {
		return
	}

	events := make([]endpoint, 0, 2*(len(rBoxes)+len(sBoxes)))
	for _, bx := range rBoxes {
		events = append(events,
			endpoint{x: bx.ext.Min[0], left: true, b: bx},
			endpoint{x: bx.ext.Max[0], left: false, b: bx})
	}
	for _, bx := range sBoxes {
		events = append(events,
			endpoint{x: bx.ext.Min[0], left: true, b: bx},
			endpoint{x: bx.ext.Max[0], left: false, b: bx})
	}
	// Process left endpoints before right endpoints at equal x so touching
	// boxes are seen as intersecting (closed rectangles).
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].x != events[j].x {
			return events[i].x < events[j].x
		}
		return events[i].left && !events[j].left
	})

	activeR := make(map[*box]struct{})
	activeS := make(map[*box]struct{})
	for _, ev := range events {
		st.SweepEvents++
		if !ev.left {
			if ev.b.from == 0 {
				delete(activeR, ev.b)
			} else {
				delete(activeS, ev.b)
			}
			continue
		}
		var opposite map[*box]struct{}
		if ev.b.from == 0 {
			activeR[ev.b] = struct{}{}
			opposite = activeS
		} else {
			activeS[ev.b] = struct{}{}
			opposite = activeR
		}
		for other := range opposite {
			st.PairTests++
			if !ev.b.ext.Intersects(other.ext) {
				continue
			}
			rb, sb := ev.b, other
			if rb.from != 0 {
				rb, sb = sb, rb
			}
			b.handlePair(rb.node, sb.node)
		}
	}
}

// handlePair processes one intersecting extended pair: mark leaf pairs that
// pass the predictor, descend internal pairs (one side at a time when
// heights differ). Descents go through spawn, so with a Runner the
// recursive sub-sweeps fan out across the worker pool.
func (b *builder) handlePair(rn, sn *index.Node) {
	switch {
	case rn.IsLeaf() && sn.IsLeaf():
		if b.within(rn.MBR, sn.MBR) {
			b.markMu.Lock()
			b.m.Mark(rn.Page, sn.Page)
			b.markMu.Unlock()
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
// until a fixpoint or FilterDepth rounds.
func (b *builder) filter(rBoxes, sBoxes []*box, st *BuildStats) ([]*box, []*box) {
	depth := b.opts.FilterDepth
	if depth <= 0 {
		return rBoxes, sBoxes
	}
	if len(rBoxes) == 0 || len(sBoxes) == 0 {
		return rBoxes, sBoxes
	}
	dim := rBoxes[0].ext.Dim()
	// Working copies of the (possibly shrunken) box regions used only for
	// filtering decisions; marking still uses the original MBRs.
	rCur := make([]geom.MBR, len(rBoxes))
	for i, bx := range rBoxes {
		rCur[i] = bx.ext
	}
	sCur := make([]geom.MBR, len(sBoxes))
	for i, bx := range sBoxes {
		sCur[i] = bx.ext
	}
	rAlive := rBoxes
	sAlive := sBoxes
	for iter := 0; iter < depth; iter++ {
		bigR := coverAll(rCur, dim)
		bigS := coverAll(sCur, dim)
		bb := geom.Intersect(bigR, bigS)
		if bb.IsEmpty() {
			st.FilterDropped += int64(len(rAlive) + len(sAlive))
			return nil, nil
		}
		// B_R covers B ∩ R_i for all i; B_S similarly.
		bR := geom.EmptyMBR(dim)
		for i := range rCur {
			bR.ExtendMBR(geom.Intersect(bb, rCur[i]))
		}
		bS := geom.EmptyMBR(dim)
		for i := range sCur {
			bS.ExtendMBR(geom.Intersect(bb, sCur[i]))
		}
		bRS := geom.Intersect(bR, bS)
		if bRS.IsEmpty() {
			st.FilterDropped += int64(len(rAlive) + len(sAlive))
			return nil, nil
		}
		changed := false
		rAlive, rCur, changed = shrinkFilter(rAlive, rCur, bRS, changed, st)
		sAlive, sCur, changed = shrinkFilter(sAlive, sCur, bRS, changed, st)
		if len(rAlive) == 0 || len(sAlive) == 0 {
			return rAlive, sAlive
		}
		if !changed {
			break
		}
	}
	return rAlive, sAlive
}

func shrinkFilter(alive []*box, cur []geom.MBR, bRS geom.MBR, changed bool, st *BuildStats) ([]*box, []geom.MBR, bool) {
	outBoxes := alive[:0]
	outCur := cur[:0]
	for i, bx := range alive {
		if !cur[i].Intersects(bRS) {
			changed = true
			st.FilterDropped++
			continue
		}
		next := geom.Intersect(cur[i], bRS)
		if !mbrEqual(next, cur[i]) {
			changed = true
		}
		outBoxes = append(outBoxes, bx)
		outCur = append(outCur, next)
	}
	return outBoxes, outCur, changed
}

func coverAll(boxes []geom.MBR, dim int) geom.MBR {
	out := geom.EmptyMBR(dim)
	for _, m := range boxes {
		out.ExtendMBR(m)
	}
	return out
}

func mbrEqual(a, b geom.MBR) bool {
	for i := range a.Min {
		if a.Min[i] != b.Min[i] || a.Max[i] != b.Max[i] {
			return false
		}
	}
	return true
}
