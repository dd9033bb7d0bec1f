package cluster

import (
	"fmt"
	"math/rand"
	"sort"

	"pmjoin/internal/predmat"
)

// IOModel supplies the cost terms the CC algorithm minimizes: a random seek
// and a sequential page transfer, in seconds (matching the disk simulator).
type IOModel struct {
	SeekTime     float64
	TransferTime float64
}

// CostOptions tunes the CC algorithm.
type CostOptions struct {
	// HistogramBins is the resolution per axis of the density histogram used
	// for seeding; 0 means 100 (the paper builds a 100×100 histogram).
	HistogramBins int
	// Seed makes the seed-entry choice deterministic.
	Seed int64
	// IO is the I/O cost model; the zero value uses 10ms seek / 1ms transfer.
	IO IOModel
}

func (o *CostOptions) defaults() {
	if o.HistogramBins == 0 {
		o.HistogramBins = 100
	}
	if o.IO.SeekTime == 0 && o.IO.TransferTime == 0 {
		o.IO = IOModel{SeekTime: 10e-3, TransferTime: 1e-3}
	}
}

// Cost runs the CC algorithm (Figure 8): seed each cluster from the densest
// histogram bucket, then grow the covering rectangle entry by entry, always
// absorbing the unassigned marked entry whose absorption increases the
// cluster's I/O read cost the least (found TA-style over the two growth
// directions), until the cluster's pages fill the buffer.
//
// CC minimizes the seek-aware I/O cost directly; the paper uses it as an
// approximate lower bound for the I/O cost of SC (§9.2, Table 2).
func Cost(m *predmat.Matrix, b int, opts CostOptions) ([]*Cluster, error) {
	if b < 2 {
		return nil, fmt.Errorf("cluster: buffer %d < 2", b)
	}
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	cc := newCCState(m, b, opts)

	var clusters []*Cluster
	for cc.remaining > 0 {
		seed, ok := cc.pickSeed(rng)
		if !ok {
			return nil, fmt.Errorf("cluster: CC histogram exhausted with %d entries remaining", cc.remaining)
		}
		clusters = append(clusters, cc.grow(seed))
	}
	return clusters, nil
}

type ccState struct {
	m    *predmat.Matrix
	b    int
	opts CostOptions

	// liveByRow[r] / liveByCol[c] are the unassigned entries of row r /
	// column c, ascending: windows of one copy each of the matrix's CSR /
	// CSC lists, shrunk in place as entries are absorbed.
	liveByRow [][]int
	liveByCol [][]int
	// rowIndex / colIndex are the ascending marked rows / columns of the
	// matrix (static), used by the outward cost walks.
	rowIndex  []int
	colIndex  []int
	remaining int

	// The growing cluster: entries[start:] (one backing array for every
	// cluster), its distinct rows and cols as stamps plus lists.
	entries        []predmat.Entry
	inRows, inCols stamps
	rows, cols     []int
	// Scratch: pagesAfter's newly covered columns, pickSeed's candidates.
	seenCols   stamps
	candidates []predmat.Entry

	hist     []int // histogram bucket counts
	bins     int
	rowScale float64
	colScale float64
}

func newCCState(m *predmat.Matrix, b int, opts CostOptions) *ccState {
	cc := &ccState{
		m:         m,
		b:         b,
		opts:      opts,
		liveByRow: windows(m.Rows(), m.Marked(), m.MarkedRows(), m.RowCols),
		liveByCol: windows(m.Cols(), m.Marked(), m.MarkedCols(), m.ColRows),
		rowIndex:  m.MarkedRows(),
		colIndex:  m.MarkedCols(),
		remaining: m.Marked(),
		entries:   make([]predmat.Entry, 0, m.Marked()),
		inRows:    newStamps(m.Rows()),
		inCols:    newStamps(m.Cols()),
		seenCols:  newStamps(m.Cols()),
	}

	cc.bins = cc.opts.HistogramBins
	if cc.bins > cc.m.Rows() {
		cc.bins = max(1, cc.m.Rows())
	}
	if cc.bins > cc.m.Cols() {
		cc.bins = max(1, cc.m.Cols())
	}
	cc.rowScale = float64(cc.bins) / float64(max(1, cc.m.Rows()))
	cc.colScale = float64(cc.bins) / float64(max(1, cc.m.Cols()))
	cc.hist = make([]int, cc.bins*cc.bins)
	for _, r := range cc.m.MarkedRows() {
		for _, c := range cc.m.RowCols(r) {
			cc.hist[cc.bucket(r, c)]++
		}
	}
	return cc
}

func (cc *ccState) bucket(r, c int) int {
	br := int(float64(r) * cc.rowScale)
	if br >= cc.bins {
		br = cc.bins - 1
	}
	bc := int(float64(c) * cc.colScale)
	if bc >= cc.bins {
		bc = cc.bins - 1
	}
	return br*cc.bins + bc
}

// pickSeed chooses a random unassigned entry in the bucket with the most
// unassigned entries.
func (cc *ccState) pickSeed(rng *rand.Rand) (predmat.Entry, bool) {
	best, bestCount := -1, 0
	for i, n := range cc.hist {
		if n > bestCount {
			best, bestCount = i, n
		}
	}
	if best < 0 {
		return predmat.Entry{}, false
	}
	br := best / cc.bins
	bc := best % cc.bins
	rLo := int(float64(br) / cc.rowScale)
	rHi := int(float64(br+1) / cc.rowScale)
	cc.candidates = cc.candidates[:0]
	for r := rLo; r <= rHi && r < cc.m.Rows(); r++ {
		for _, c := range cc.liveByRow[r] {
			bcGot := cc.bucket(r, c) % cc.bins
			if bcGot == bc {
				cc.candidates = append(cc.candidates, predmat.Entry{R: r, C: c})
			}
		}
	}
	if len(cc.candidates) == 0 {
		// Histogram count drifted (should not happen); fall back to the
		// first live entry in row order.
		for _, r := range cc.rowIndex {
			if cols := cc.liveByRow[r]; len(cols) > 0 {
				return predmat.Entry{R: r, C: cols[0]}, true
			}
		}
		return predmat.Entry{}, false
	}
	return cc.candidates[rng.Intn(len(cc.candidates))], true
}

// rect is the growing cluster rectangle.
type rect struct {
	rLo, rHi, cLo, cHi int
}

// grow builds one cluster starting from seed (Figure 8 steps 3.b-3.e).
func (cc *ccState) grow(seed predmat.Entry) *Cluster {
	start := len(cc.entries)
	cc.inRows.reset()
	cc.inCols.reset()
	cc.rows, cc.cols = cc.rows[:0], cc.cols[:0]
	rc := rect{rLo: seed.R, rHi: seed.R, cLo: seed.C, cHi: seed.C}
	cc.absorb(rc)

	for cc.remaining > 0 {
		next, ok := cc.cheapestExpansion(rc)
		if !ok {
			break
		}
		newRect := rc
		if next.R < newRect.rLo {
			newRect.rLo = next.R
		}
		if next.R > newRect.rHi {
			newRect.rHi = next.R
		}
		if next.C < newRect.cLo {
			newRect.cLo = next.C
		}
		if next.C > newRect.cHi {
			newRect.cHi = next.C
		}
		// Check buffer fit after absorbing everything the expansion covers.
		if cc.pagesAfter(newRect) > cc.b {
			break
		}
		rc = newRect
		cc.absorb(rc)
	}
	n := len(cc.entries)
	return newCluster(cc.entries[start:n:n], cc.rows, cc.cols)
}

// pagesAfter counts the distinct marked rows+cols the cluster would have
// after expanding to nr, without mutating the live lists.
func (cc *ccState) pagesAfter(nr rect) int {
	pages := len(cc.rows) + len(cc.cols)
	cc.seenCols.reset()
	for r := nr.rLo; r <= nr.rHi; r++ {
		live := cc.liveByRow[r]
		covered := false
		for _, c := range live[sort.SearchInts(live, nr.cLo):] {
			if c > nr.cHi {
				break
			}
			covered = true
			if !cc.inCols.has(c) && cc.seenCols.add(c) {
				pages++
			}
		}
		if covered && !cc.inRows.has(r) {
			pages++
		}
	}
	return pages
}

// absorb assigns every unassigned marked entry inside rc to the growing
// cluster.
func (cc *ccState) absorb(rc rect) {
	for r := rc.rLo; r <= rc.rHi; r++ {
		live := cc.liveByRow[r]
		keep := 0
		for _, c := range live {
			if c < rc.cLo || c > rc.cHi {
				live[keep] = c
				keep++
				continue
			}
			cc.entries = append(cc.entries, predmat.Entry{R: r, C: c})
			if cc.inRows.add(r) {
				cc.rows = append(cc.rows, r)
			}
			if cc.inCols.add(c) {
				cc.cols = append(cc.cols, c)
			}
			cc.remaining--
			cc.hist[cc.bucket(r, c)]--
			cc.removeFromCol(c, r)
		}
		cc.liveByRow[r] = live[:keep]
	}
}

func (cc *ccState) removeFromCol(c, r int) {
	live := cc.liveByCol[c]
	pos := sort.SearchInts(live, r)
	if pos < len(live) && live[pos] == r {
		cc.liveByCol[c] = append(live[:pos], live[pos+1:]...)
	}
}

// cheapestExpansion finds the unassigned entry outside rc whose absorption
// minimizes the increase in I/O cost of reading the cluster's pages. The
// cost increase of an entry (r,c) separates into a row term depending only
// on r and a column term depending only on c, so the two growth directions
// form lists sorted by increasing cost — the extension cost is V-shaped
// around the cluster interval, so walking outward from the interval visits
// rows (and columns) in cost order without sorting. Fagin's threshold
// algorithm over the two directions stops the walk once the best combined
// cost found is at or below the frontier sum (Figure 8 step 3.c.i).
func (cc *ccState) cheapestExpansion(rc rect) (predmat.Entry, bool) {
	rowWalk := cc.newWalk(rc.rLo, rc.rHi, cc.rowIndex, cc.liveByRow)
	colWalk := cc.newWalk(rc.cLo, rc.cHi, cc.colIndex, cc.liveByCol)

	best := predmat.Entry{}
	bestCost := -1.0
	consider := func(r, c int) {
		cost := cc.extendCost(r, rc.rLo, rc.rHi) + cc.extendCost(c, rc.cLo, rc.cHi)
		if bestCost < 0 || cost < bestCost {
			bestCost = cost
			best = predmat.Entry{R: r, C: c}
		}
	}

	for {
		r, _, rOK := rowWalk.next()
		if rOK {
			// Best live partner column of this row: the extension cost is
			// V-shaped in the column index, so the candidates nearest the
			// column interval win; liveByRow[r] is sorted.
			if c, ok := cc.nearestLive(cc.liveByRow[r], rc.cLo, rc.cHi); ok {
				consider(r, c)
			}
		}
		c, _, cOK := colWalk.next()
		if cOK {
			if r2, ok := cc.nearestLive(cc.liveByCol[c], rc.rLo, rc.rHi); ok {
				consider(r2, c)
			}
		}
		if !rOK && !cOK {
			break
		}
		// TA threshold: no unseen entry can beat the sum of the frontier
		// costs of the two directions.
		threshold := 0.0
		if nr, ok := rowWalk.peekCost(); ok {
			threshold += nr
		} else if !cOK {
			break
		}
		if nc, ok := colWalk.peekCost(); ok {
			threshold += nc
		} else if !rOK {
			break
		}
		if bestCost >= 0 && bestCost <= threshold {
			break
		}
	}
	if bestCost < 0 {
		return predmat.Entry{}, false
	}
	return best, true
}

// walk enumerates the live indices of one direction in increasing extension
// cost: first the indices inside [lo,hi] (cost 0), then outward from the
// interval boundaries, cheapest side first.
type walk struct {
	cc       *ccState
	sorted   []int // all marked indices of the direction, ascending
	live     [][]int
	lo, hi   int
	inside   int // next position within [lo,hi]
	insideHi int // first position past hi
	left     int // next position below lo (descending)
	right    int // next position above hi (ascending)
}

func (cc *ccState) newWalk(lo, hi int, sorted []int, live [][]int) walk {
	w := walk{cc: cc, sorted: sorted, live: live, lo: lo, hi: hi}
	w.inside = sort.SearchInts(sorted, lo)
	w.insideHi = sort.SearchInts(sorted, hi+1)
	w.left = w.inside - 1
	w.right = w.insideHi
	return w
}

// next returns the next-cheapest live index and its cost.
func (w *walk) next() (int, float64, bool) {
	for w.inside < w.insideHi {
		idx := w.sorted[w.inside]
		w.inside++
		if len(w.live[idx]) > 0 {
			return idx, 0, true
		}
	}
	for {
		lCost, lOK := w.sideCost(w.left)
		rCost, rOK := w.sideCost(w.right)
		switch {
		case !lOK && !rOK:
			return 0, 0, false
		case lOK && (!rOK || lCost <= rCost):
			idx := w.sorted[w.left]
			w.left--
			if len(w.live[idx]) > 0 {
				return idx, lCost, true
			}
		default:
			idx := w.sorted[w.right]
			w.right++
			if len(w.live[idx]) > 0 {
				return idx, rCost, true
			}
		}
	}
}

// peekCost returns the cost of the cheapest unvisited index (live or not —
// a lower bound, which is what the TA threshold needs).
func (w *walk) peekCost() (float64, bool) {
	if w.inside < w.insideHi {
		return 0, true
	}
	lCost, lOK := w.sideCost(w.left)
	rCost, rOK := w.sideCost(w.right)
	switch {
	case !lOK && !rOK:
		return 0, false
	case lOK && (!rOK || lCost <= rCost):
		return lCost, true
	default:
		return rCost, true
	}
}

func (w *walk) sideCost(pos int) (float64, bool) {
	if pos < 0 || pos >= len(w.sorted) {
		return 0, false
	}
	return w.cc.extendCost(w.sorted[pos], w.lo, w.hi), true
}

// nearestLive returns the index in the sorted live list with minimum
// extension cost relative to [lo,hi]: an index inside the interval if any,
// otherwise the nearest neighbour of either boundary.
func (cc *ccState) nearestLive(sorted []int, lo, hi int) (int, bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	pos := sort.SearchInts(sorted, lo)
	if pos < len(sorted) && sorted[pos] <= hi {
		return sorted[pos], true // inside the interval: cost 0
	}
	best, bestCost := 0, -1.0
	if pos-1 >= 0 {
		best, bestCost = sorted[pos-1], cc.extendCost(sorted[pos-1], lo, hi)
	}
	if pos < len(sorted) {
		if c := cc.extendCost(sorted[pos], lo, hi); bestCost < 0 || c < bestCost {
			best, bestCost = sorted[pos], c
		}
	}
	return best, bestCost >= 0
}

// extendCost models the I/O cost increase of extending the page interval
// [lo,hi] to include page p: pages in the gap must be transferred (they are
// read sequentially once the cluster is fetched with optimal disk
// scheduling) and a new seek is charged when the extension is discontiguous.
func (cc *ccState) extendCost(p, lo, hi int) float64 {
	io := cc.opts.IO
	switch {
	case p >= lo && p <= hi:
		return 0
	case p < lo:
		gap := lo - p
		cost := io.TransferTime * float64(gap)
		if gap > 1 {
			cost += io.SeekTime
		}
		return cost
	default:
		gap := p - hi
		cost := io.TransferTime * float64(gap)
		if gap > 1 {
			cost += io.SeekTime
		}
		return cost
	}
}
