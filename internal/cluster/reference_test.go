package cluster

// The seed SC and CC algorithms, kept verbatim (renamed) as test oracles:
// SquareOpts and Cost must produce exactly their clusters — same Entries
// order, same Rows() and Cols() — on every input (the differential tests at
// the end of this file).

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pmjoin/internal/predmat"
)

// refFinalize is the seed finalize: rows/cols derived from the entries
// through maps.
func refFinalize(c *Cluster) {
	rset := make(map[int]struct{})
	cset := make(map[int]struct{})
	for _, e := range c.Entries {
		rset[e.R] = struct{}{}
		cset[e.C] = struct{}{}
	}
	c.rows = refSortedKeys(rset)
	c.cols = refSortedKeys(cset)
}

func refSortedKeys(s map[int]struct{}) []int {
	out := make([]int, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// refSquare is the seed SquareOpts: per-cluster rescans of every pending
// column through maps, a fresh leftover slice per column.
func refSquare(m *predmat.Matrix, b int, opts SquareOptions) ([]*Cluster, error) {
	if b < 2 {
		return nil, fmt.Errorf("cluster: buffer %d < 2", b)
	}
	frac := opts.RowFraction
	if frac == 0 {
		frac = 0.5
	}
	if frac <= 0 || frac >= 1 {
		return nil, fmt.Errorf("cluster: row fraction %g outside (0,1)", frac)
	}
	rowCap := int(float64(b) * frac)
	if rowCap < 1 {
		rowCap = 1
	}
	colCap := b - rowCap
	if colCap < 1 {
		colCap = 1
		rowCap = b - 1
	}

	// unassigned[c] holds the not-yet-clustered marked rows of column c.
	unassigned := make(map[int][]int, len(m.MarkedCols()))
	colOrder := m.MarkedCols()
	remaining := 0
	for _, c := range colOrder {
		rows := append([]int(nil), m.ColRows(c)...)
		unassigned[c] = rows
		remaining += len(rows)
	}

	var clusters []*Cluster
	for remaining > 0 {
		cl := &Cluster{}
		rows := make(map[int]struct{}, rowCap)
		cols := make(map[int]struct{}, colCap)
		for _, c := range colOrder {
			pending := unassigned[c]
			if len(pending) == 0 {
				continue
			}
			if len(cols) >= colCap {
				break
			}
			var leftover []int
			took := false
			for _, r := range pending {
				_, have := rows[r]
				if !have && len(rows) >= rowCap {
					leftover = append(leftover, r)
					continue
				}
				rows[r] = struct{}{}
				cl.Entries = append(cl.Entries, predmat.Entry{R: r, C: c})
				took = true
				remaining--
			}
			unassigned[c] = leftover
			if took {
				cols[c] = struct{}{}
			}
		}
		if len(cl.Entries) == 0 {
			return nil, fmt.Errorf("cluster: SC made no progress with %d entries remaining", remaining)
		}
		refFinalize(cl)
		clusters = append(clusters, cl)
	}
	return clusters, nil
}

// refCost is the seed Cost: map-keyed live lists and cluster row/col sets.
func refCost(m *predmat.Matrix, b int, opts CostOptions) ([]*Cluster, error) {
	if b < 2 {
		return nil, fmt.Errorf("cluster: buffer %d < 2", b)
	}
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	cc := &refCC{m: m, b: b, opts: opts}
	cc.init()

	var clusters []*Cluster
	for cc.remaining > 0 {
		seed, ok := cc.pickSeed(rng)
		if !ok {
			return nil, fmt.Errorf("cluster: CC histogram exhausted with %d entries remaining", cc.remaining)
		}
		cl := cc.grow(seed)
		refFinalize(cl)
		clusters = append(clusters, cl)
	}
	return clusters, nil
}

type refCC struct {
	m    *predmat.Matrix
	b    int
	opts CostOptions

	// liveByRow / liveByCol track unassigned entries for fast rectangle
	// absorption and directional scans.
	liveByRow map[int][]int
	liveByCol map[int][]int
	// rowIndex / colIndex are the ascending marked rows / columns of the
	// matrix (static), used by the outward cost walks.
	rowIndex  []int
	colIndex  []int
	remaining int

	hist     []int // histogram bucket counts
	bins     int
	rowScale float64
	colScale float64
}

func (cc *refCC) init() {
	cc.liveByRow = make(map[int][]int)
	cc.liveByCol = make(map[int][]int)
	for _, r := range cc.m.MarkedRows() {
		cc.liveByRow[r] = append([]int(nil), cc.m.RowCols(r)...)
	}
	for _, c := range cc.m.MarkedCols() {
		cc.liveByCol[c] = append([]int(nil), cc.m.ColRows(c)...)
	}
	cc.rowIndex = cc.m.MarkedRows()
	cc.colIndex = cc.m.MarkedCols()
	cc.remaining = cc.m.Marked()

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
}

func (cc *refCC) bucket(r, c int) int {
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
func (cc *refCC) pickSeed(rng *rand.Rand) (predmat.Entry, bool) {
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
	var candidates []predmat.Entry
	for r := rLo; r <= rHi && r < cc.m.Rows(); r++ {
		for _, c := range cc.liveByRow[r] {
			bcGot := cc.bucket(r, c) % cc.bins
			if bcGot == bc {
				candidates = append(candidates, predmat.Entry{R: r, C: c})
			}
		}
	}
	if len(candidates) == 0 {
		// Histogram count drifted (should not happen); fall back to any
		// live entry. The seed ranged over the liveByRow map here, so its
		// pick depended on map order; the oracle takes the first live row,
		// as production now does.
		for _, r := range cc.rowIndex {
			if cols := cc.liveByRow[r]; len(cols) > 0 {
				return predmat.Entry{R: r, C: cols[0]}, true
			}
		}
		return predmat.Entry{}, false
	}
	return candidates[rng.Intn(len(candidates))], true
}

// refRect is the growing cluster rectangle.
type refRect struct {
	rLo, rHi, cLo, cHi int
}

// grow builds one cluster starting from seed (Figure 8 steps 3.b-3.e).
func (cc *refCC) grow(seed predmat.Entry) *Cluster {
	cl := &Cluster{}
	rc := refRect{rLo: seed.R, rHi: seed.R, cLo: seed.C, cHi: seed.C}
	rows := map[int]struct{}{}
	cols := map[int]struct{}{}
	cc.absorb(cl, rc, rows, cols)

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
		newRows, newCols := cc.pagesAfter(newRect, rows, cols)
		if newRows+newCols > cc.b {
			break
		}
		rc = newRect
		cc.absorb(cl, rc, rows, cols)
	}
	return cl
}

// pagesAfter counts distinct marked rows/cols the cluster would have after
// expanding to nr, without mutating state.
func (cc *refCC) pagesAfter(nr refRect, rows, cols map[int]struct{}) (int, int) {
	nRows := len(rows)
	nCols := len(cols)
	for r := nr.rLo; r <= nr.rHi; r++ {
		if _, have := rows[r]; have {
			continue
		}
		for _, c := range cc.liveByRow[r] {
			if c >= nr.cLo && c <= nr.cHi {
				nRows++
				break
			}
		}
	}
	seenCols := make(map[int]struct{})
	for r := nr.rLo; r <= nr.rHi; r++ {
		for _, c := range cc.liveByRow[r] {
			if c < nr.cLo || c > nr.cHi {
				continue
			}
			if _, have := cols[c]; have {
				continue
			}
			if _, dup := seenCols[c]; dup {
				continue
			}
			seenCols[c] = struct{}{}
			nCols++
		}
	}
	return nRows, nCols
}

// absorb assigns every unassigned marked entry inside rc to cl.
func (cc *refCC) absorb(cl *Cluster, rc refRect, rows, cols map[int]struct{}) {
	for r := rc.rLo; r <= rc.rHi; r++ {
		live := cc.liveByRow[r]
		if len(live) == 0 {
			continue
		}
		var keep []int
		for _, c := range live {
			if c < rc.cLo || c > rc.cHi {
				keep = append(keep, c)
				continue
			}
			cl.Entries = append(cl.Entries, predmat.Entry{R: r, C: c})
			rows[r] = struct{}{}
			cols[c] = struct{}{}
			cc.remaining--
			cc.hist[cc.bucket(r, c)]--
			cc.removeFromCol(c, r)
		}
		cc.liveByRow[r] = keep
	}
}

func (cc *refCC) removeFromCol(c, r int) {
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
func (cc *refCC) cheapestExpansion(rc refRect) (predmat.Entry, bool) {
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
			if c, ok := refNearestLive(cc.liveByRow[r], rc.cLo, rc.cHi, cc.refExtendCostFn(rc.cLo, rc.cHi)); ok {
				consider(r, c)
			}
		}
		c, _, cOK := colWalk.next()
		if cOK {
			if r2, ok := refNearestLive(cc.liveByCol[c], rc.rLo, rc.rHi, cc.refExtendCostFn(rc.rLo, rc.rHi)); ok {
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

// refWalk enumerates the live indices of one direction in increasing extension
// cost: first the indices inside [lo,hi] (cost 0), then outward from the
// interval boundaries, cheapest side first.
type refWalk struct {
	cc       *refCC
	sorted   []int // all marked indices of the direction, ascending
	live     map[int][]int
	lo, hi   int
	inside   int // next position within [lo,hi]
	insideHi int // first position past hi
	left     int // next position below lo (descending)
	right    int // next position above hi (ascending)
}

func (cc *refCC) newWalk(lo, hi int, sorted []int, live map[int][]int) *refWalk {
	w := &refWalk{cc: cc, sorted: sorted, live: live, lo: lo, hi: hi}
	w.inside = sort.SearchInts(sorted, lo)
	w.insideHi = sort.SearchInts(sorted, hi+1)
	w.left = w.inside - 1
	w.right = w.insideHi
	return w
}

// next returns the next-cheapest live index and its cost.
func (w *refWalk) next() (int, float64, bool) {
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
func (w *refWalk) peekCost() (float64, bool) {
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

func (w *refWalk) sideCost(pos int) (float64, bool) {
	if pos < 0 || pos >= len(w.sorted) {
		return 0, false
	}
	return w.cc.extendCost(w.sorted[pos], w.lo, w.hi), true
}

// refExtendCostFn returns the single-direction extension cost function for the
// interval [lo,hi].
func (cc *refCC) refExtendCostFn(lo, hi int) func(int) float64 {
	return func(p int) float64 { return cc.extendCost(p, lo, hi) }
}

// refNearestLive returns the index in the sorted live list with minimum
// extension cost relative to [lo,hi]: an index inside the interval if any,
// otherwise the nearest neighbour of either boundary.
func refNearestLive(sorted []int, lo, hi int, costOf func(int) float64) (int, bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	pos := sort.SearchInts(sorted, lo)
	if pos < len(sorted) && sorted[pos] <= hi {
		return sorted[pos], true // inside the interval: cost 0
	}
	best, bestCost := 0, -1.0
	if pos-1 >= 0 {
		best, bestCost = sorted[pos-1], costOf(sorted[pos-1])
	}
	if pos < len(sorted) {
		if c := costOf(sorted[pos]); bestCost < 0 || c < bestCost {
			best, bestCost = sorted[pos], c
		}
	}
	return best, bestCost >= 0
}

// extendCost models the I/O cost increase of extending the page interval
// [lo,hi] to include page p: pages in the gap must be transferred (they are
// read sequentially once the cluster is fetched with optimal disk
// scheduling) and a new seek is charged when the extension is discontiguous.
func (cc *refCC) extendCost(p, lo, hi int) float64 {
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

// diffMatrices is the differential tests' input family: random densities
// 0-0.2 over shapes with empty rows and columns, a single row, a single
// column, a full matrix and diagonal-heavy bands.
func diffMatrices(rng *rand.Rand) map[string]*predmat.Matrix {
	ms := map[string]*predmat.Matrix{
		"full":       predmat.Full(9, 13),
		"single_row": randomMatrix(rng, 1, 40, 0.3),
		"single_col": randomMatrix(rng, 40, 1, 0.3),
		"one_entry":  randomMatrix(rng, 1, 1, 1),
		"empty":      predmat.FromEntries(5, 7),
		"diagonal":   bandedMatrix(rng, 70, 3, 0.7),
		"wide_band":  bandedMatrix(rng, 50, 12, 0.2),
	}
	for i := 0; i < 8; i++ {
		rows, cols := 1+rng.Intn(80), 1+rng.Intn(80)
		ms[fmt.Sprintf("random_%d", i)] = randomMatrix(rng, rows, cols, 0.2*float64(i)/7)
	}
	// Whole rows and columns left empty: marks only on a random subset.
	var holes []predmat.Entry
	for r := 0; r < 60; r += 1 + rng.Intn(4) {
		for c := 0; c < 60; c += 1 + rng.Intn(5) {
			if rng.Float64() < 0.3 {
				holes = append(holes, predmat.Entry{R: r, C: c})
			}
		}
	}
	ms["holes"] = predmat.FromEntries(60, 60, holes)
	return ms
}

// sameClusters fails t unless got and want are the same clusters: same
// count, and per cluster element-equal Entries, Rows() and Cols().
func sameClusters(t *testing.T, what string, got, want []*Cluster) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d clusters, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !slices.Equal(g.Entries, w.Entries) || !slices.Equal(g.Rows(), w.Rows()) || !slices.Equal(g.Cols(), w.Cols()) {
			t.Fatalf("%s: cluster %d differs from the oracle\n got %v rows %v cols %v\nwant %v rows %v cols %v",
				what, i, g.Entries, g.Rows(), g.Cols(), w.Entries, w.Rows(), w.Cols())
		}
	}
}

func TestSquareOptsMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for name, m := range diffMatrices(rand.New(rand.NewSource(seed))) {
			for _, b := range []int{2, 3, 10, 100} {
				for _, frac := range []float64{0, 0.3, 0.7} {
					what := fmt.Sprintf("seed %d %s b=%d frac=%g", seed, name, b, frac)
					opts := SquareOptions{RowFraction: frac}
					got, err := SquareOpts(m, b, opts)
					want, werr := refSquare(m, b, opts)
					if (err == nil) != (werr == nil) {
						t.Fatalf("%s: err %v, oracle err %v", what, err, werr)
					}
					sameClusters(t, what, got, want)
				}
			}
		}
	}
}

func TestCostMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for name, m := range diffMatrices(rand.New(rand.NewSource(seed))) {
			for _, b := range []int{2, 3, 10, 100} {
				for _, bins := range []int{0, 7} {
					for _, ccSeed := range []int64{0, seed * 17} {
						what := fmt.Sprintf("seed %d %s b=%d bins=%d ccSeed=%d", seed, name, b, bins, ccSeed)
						opts := CostOptions{HistogramBins: bins, Seed: ccSeed}
						got, err := Cost(m, b, opts)
						want, werr := refCost(m, b, opts)
						if (err == nil) != (werr == nil) {
							t.Fatalf("%s: err %v, oracle err %v", what, err, werr)
						}
						sameClusters(t, what, got, want)
					}
				}
			}
		}
	}
}

// TestSquareOptsAllocsPerCluster guards the flat SC: a constant number of
// allocations per cluster plus a constant setup, where the seed allocated a
// leftover slice per visited column per cluster.
func TestSquareOptsAllocsPerCluster(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(11)), 400, 400, 0.1)
	const b = 40
	clusters, err := SquareOpts(m, b, SquareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	budget := float64(2*len(clusters) + 2*bits.Len(uint(len(clusters))) + 16)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := SquareOpts(m, b, SquareOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("SquareOpts: %.0f allocations for %d clusters over %d marks, budget %.0f",
			allocs, len(clusters), m.Marked(), budget)
	}
}
