package predmat

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"pmjoin/internal/geom"
	"pmjoin/internal/index"
)

// This file is the matrix construction as it was first written — pointer
// boxes, a geom.MBR allocated per box per filter round, map-based active
// sets, one mutex acquisition per mark — kept as the oracle that Build's
// node table, flat-scratch sweep and filter must reproduce: the same matrix
// and the same BuildStats for every input. Its filter's stopping rule is
// written apart from Build's roundPays and roundDropped, in other terms, so
// that a slip in either shows as a stats difference.

// refBuild is Build over the reference sweep and filter.
func refBuild(r, s *index.Node, rPages, sPages int, eps float64, pred Predictor, opts BuildOptions) (*Matrix, error) {
	if r == nil || s == nil {
		return nil, fmt.Errorf("predmat: nil index root")
	}
	if eps < 0 {
		return nil, fmt.Errorf("predmat: negative epsilon %g", eps)
	}
	b := &refBuilder{eps: eps, pred: pred, opts: opts}
	b.within, _ = MBRTest(pred, eps)
	b.sweep([]*index.Node{r}, []*index.Node{s})
	opts.Runner.Wait()
	if opts.Stats != nil {
		opts.Stats.SweepEvents += b.sweepEvents.Load()
		opts.Stats.PairTests += b.pairTests.Load()
		opts.Stats.FilterDropped += b.filterDropped.Load()
		opts.Stats.Recursions += b.recursions.Load()
	}
	return FromEntries(rPages, sPages, b.marks), nil
}

type refBuilder struct {
	eps  float64
	pred Predictor
	opts BuildOptions
	// within decides pred.LowerBound(a, b) <= eps (MBRTest).
	within func(a, b geom.MBR) bool

	// markMu guards marks: concurrent sub-sweeps may mark the same entry, and
	// the matrix is the set of marked cells, so it is identical regardless of
	// interleaving.
	markMu sync.Mutex
	marks  []Entry
	// Counters accumulate per-sweep totals; each sweep batches its local
	// counts into one atomic add, so the hot event loop stays cheap.
	sweepEvents   atomic.Int64
	pairTests     atomic.Int64
	filterDropped atomic.Int64
	recursions    atomic.Int64
}

// flush folds one sweep's local counters into the refBuilder totals.
func (b *refBuilder) flush(st *BuildStats) {
	if b.opts.Stats == nil {
		return
	}
	b.sweepEvents.Add(st.SweepEvents)
	b.pairTests.Add(st.PairTests)
	b.filterDropped.Add(st.FilterDropped)
	b.recursions.Add(st.Recursions)
}

// spawn runs a recursive sub-sweep as a task of the runner.
func (b *refBuilder) spawn(rNodes, sNodes []*index.Node) {
	b.opts.Runner.Go(func() { b.sweep(rNodes, sNodes) })
}

// refBox is a sweep participant: an index node with its extended MBR.
type refBox struct {
	node *index.Node
	ext  geom.MBR
	from int // 0 = R side, 1 = S side
}

// refEndpoint is one sweep event on the first coordinate.
type refEndpoint struct {
	x    float64
	left bool
	b    *refBox
}

// sweep runs one level of the hierarchical plane sweep over the given node
// sets (Figure 1 steps 1-5). It only reads the (immutable) index nodes and
// writes through the mark mutex, so concurrent sweeps need no coordination
// beyond their local stats, flushed once on return.
func (b *refBuilder) sweep(rNodes, sNodes []*index.Node) {
	var st BuildStats
	defer b.flush(&st)
	st.Recursions++
	if len(rNodes) == 0 || len(sNodes) == 0 {
		return
	}
	half := b.eps / 2
	rBoxes := make([]*refBox, 0, len(rNodes))
	for _, n := range rNodes {
		if n.MBR.IsEmpty() && !n.IsLeaf() {
			continue
		}
		rBoxes = append(rBoxes, &refBox{node: n, ext: n.MBR.Extended(half), from: 0})
	}
	sBoxes := make([]*refBox, 0, len(sNodes))
	for _, n := range sNodes {
		if n.MBR.IsEmpty() && !n.IsLeaf() {
			continue
		}
		sBoxes = append(sBoxes, &refBox{node: n, ext: n.MBR.Extended(half), from: 1})
	}

	rBoxes, sBoxes = b.filter(rBoxes, sBoxes, &st)
	if len(rBoxes) == 0 || len(sBoxes) == 0 {
		return
	}

	events := make([]refEndpoint, 0, 2*(len(rBoxes)+len(sBoxes)))
	for _, bx := range append(rBoxes[:len(rBoxes):len(rBoxes)], sBoxes...) {
		// A zero-dimensional box is the canonical empty box: it enters the
		// sweep at +Inf and leaves it at -Inf.
		lo, hi := math.Inf(1), math.Inf(-1)
		if bx.ext.Dim() > 0 {
			lo, hi = bx.ext.Min[0], bx.ext.Max[0]
		}
		events = append(events,
			refEndpoint{x: lo, left: true, b: bx},
			refEndpoint{x: hi, left: false, b: bx})
	}
	// Process left endpoints before right endpoints at equal x so touching
	// boxes are seen as intersecting (closed rectangles).
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].x != events[j].x {
			return events[i].x < events[j].x
		}
		return events[i].left && !events[j].left
	})

	activeR := make(map[*refBox]struct{})
	activeS := make(map[*refBox]struct{})
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
		var opposite map[*refBox]struct{}
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
func (b *refBuilder) handlePair(rn, sn *index.Node) {
	switch {
	case rn.IsLeaf() && sn.IsLeaf():
		if b.within(rn.MBR, sn.MBR) {
			b.markMu.Lock()
			b.marks = append(b.marks, Entry{R: rn.Page, C: sn.Page})
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
// at most FilterDepth rounds. A round runs only while the live boxes could
// meet in more pairs than the round reads coordinates, and a round that
// drops less than a quarter of the live boxes is the last.
func (b *refBuilder) filter(rBoxes, sBoxes []*refBox, st *BuildStats) ([]*refBox, []*refBox) {
	depth := b.opts.FilterDepth
	if depth <= 0 {
		return rBoxes, sBoxes
	}
	if len(rBoxes) == 0 || len(sBoxes) == 0 {
		return rBoxes, sBoxes
	}
	dim := rBoxes[0].ext.Dim()
	// Working copies of the (possibly shrunken) refBox regions used only for
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
		live := len(rAlive) + len(sAlive)
		if pairs, reads := len(rAlive)*len(sAlive), live*dim; pairs <= reads {
			break
		}
		bigR := refCoverAll(rCur, dim)
		bigS := refCoverAll(sCur, dim)
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
		rAlive, rCur = refShrinkFilter(rAlive, rCur, bRS, st)
		sAlive, sCur = refShrinkFilter(sAlive, sCur, bRS, st)
		if len(rAlive) == 0 || len(sAlive) == 0 {
			return rAlive, sAlive
		}
		if dropped := live - len(rAlive) - len(sAlive); float64(dropped) < 0.25*float64(live) {
			break
		}
	}
	return rAlive, sAlive
}

func refShrinkFilter(alive []*refBox, cur []geom.MBR, bRS geom.MBR, st *BuildStats) ([]*refBox, []geom.MBR) {
	outBoxes := alive[:0]
	outCur := cur[:0]
	for i, bx := range alive {
		if !cur[i].Intersects(bRS) {
			st.FilterDropped++
			continue
		}
		outBoxes = append(outBoxes, bx)
		outCur = append(outCur, geom.Intersect(cur[i], bRS))
	}
	return outBoxes, outCur
}

func refCoverAll(boxes []geom.MBR, dim int) geom.MBR {
	out := geom.EmptyMBR(dim)
	for _, m := range boxes {
		out.ExtendMBR(m)
	}
	return out
}
