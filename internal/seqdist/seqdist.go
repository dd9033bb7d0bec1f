// Package seqdist implements the sequence distance measures of Table 1:
// edit distance for string data and its lower-bounding frequency distance
// (the MRS-index predictor, Kahveci & Singh, VLDB 2001).
package seqdist

import (
	"fmt"
	"math"
)

// EditDistance returns the Levenshtein distance between a and b using unit
// costs for insertion, deletion, and substitution.
func EditDistance(a, b []byte) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := 0; j <= len(b); j++ {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ai := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost // substitution / match
			if d := prev[j] + 1; d < m {
				m = d // deletion
			}
			if d := cur[j-1] + 1; d < m {
				m = d // insertion
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// EditDistanceBounded returns the edit distance if it is at most bound, and
// (bound+1, false) otherwise. It evaluates only the diagonal band
// |i−j| ≤ bound of the DP matrix and stops as soon as the band shows the
// distance exceeds bound, so refusing a distant pair costs a few columns.
// It allocates nothing unless the band is wider than 253 cells.
//
// Bands of at most 63 cells over inputs with at most maxBandSymbols distinct
// symbols run bit-parallel, one machine word per DP column (Myers 1999,
// J. ACM 46(3), with Hyyrö's 2003 diagonal band); anything else runs the
// banded DP in diagonal coordinates.
func EditDistanceBounded(a, b []byte, bound int) (int, bool) {
	if bound < 0 {
		return 0, false
	}
	n, m := len(a), len(b)
	if n-m > bound || m-n > bound {
		return bound + 1, false
	}
	if n == 0 || m == 0 {
		return n + m, true
	}
	// No distance exceeds the longer length, so a larger bound only widens
	// the band (and would overflow 2k+1 near MaxInt).
	k := min(bound, max(n, m))
	d, ok := 0, false
	if 2*k+1 <= 64 {
		d, ok = bandBits(a, b, k)
	}
	if !ok {
		d = bandDP(a, b, k)
	}
	if d > k {
		return bound + 1, false
	}
	return d, true
}

// maxBandSymbols bounds bandBits' per-symbol match bitsets: more distinct
// symbols in a than this and EditDistanceBounded falls back to bandDP.
const maxBandSymbols = 8

// bandBits evaluates the band |i−j| ≤ k of the edit-distance DP of a (rows
// i = 1..n, row i holding a[i-1]) against b (columns j = 0..m), 2k+1 ≤ 64,
// one word per column. Bit p of a column-j word is row j−k+p, so the band
// moves down one row per column and every word shifts right by one.
//
// Rows above row 0 are virtual: with D[i][j] = j−i there the DP recurrence
// holds, vertical deltas are −1 and horizontal deltas +1, so row 0 reads
// D[0][j] = j with no edge cases while the band's top is still above it.
// The cells just outside the band — the row entering at the bottom and the
// horizontal carry into the top — enter as +1 deltas. That makes every band
// value an upper bound of the true D, and exact wherever the true value is
// at most k: a path of cost ≤ k never leaves |i−j| ≤ k.
//
// The answer lies on the diagonal i−j = n−m, a fixed bit position, whose
// value the loop tracks. The true D never decreases along a diagonal, so
// once the tracked value exceeds k (and, by the above, the true value does
// too) the distance exceeds k and the loop stops.
//
// It returns the value of cell (n, m), or the first diagonal value above k,
// with ok; ok is false only if a has more than maxBandSymbols symbols.
func bandBits(a, b []byte, k int) (d int, ok bool) {
	n, m := len(a), len(b)
	bottom := uint64(1) << (2 * k)
	// Column 0 holds rows −k..k: D[i][0] = |i|, so the deltas are −1 down
	// to row 0 and +1 below it.
	vn := uint64(1)<<(k+1) - 1
	vp := (bottom<<1 - 1) &^ vn
	syms := bandSymbols{off: -k}
	for i := 1; i <= min(k, n); i++ {
		if !syms.enter(a[i-1], i) {
			return 0, false
		}
	}
	diagPos := uint(k + n - m)
	d = max(n-m, m-n) // D[n−m][0], virtual when n < m

	for j := 1; j <= m; j++ {
		vp = vp>>1 | bottom
		vn = vn >> 1 &^ bottom
		if i := j + k; i <= n {
			if i-syms.off > 63 {
				syms.rebase(j - k)
			}
			if !syms.enter(a[i-1], i) {
				return 0, false
			}
		}
		eq := syms.match(b[j-1], j-k)
		xv := eq | vn
		xh := ((eq & vp) + vp) ^ vp | eq
		hp := vn | ^(xh | vp)
		hn := vp & xh
		hp = hp<<1 | 1 // the +1 carry into the band's top
		hn <<= 1
		vp = hn | ^(xv | hp)
		vn = hp & xv
		// D[j+n−m][j] = D[j−1+n−m][j−1] + horizontal delta of the row above
		// + vertical delta of its own row, both read at the diagonal's bit.
		d += int(hp>>diagPos&1) - int(hn>>diagPos&1) + int(vp>>diagPos&1) - int(vn>>diagPos&1)
		if d > k {
			return d, true
		}
	}
	return d, true
}

// bandSymbols holds the match bitsets of the rows of a that have entered
// bandBits' band, one per distinct symbol, built as rows enter so that a
// pair refused after a few columns never reads the rest of a. Bit q of a
// bitset is row q+off; the bitsets shift (rebase) only when an entering row
// would not fit the word, not once per column.
type bandSymbols struct {
	slot [256]uint8 // 1 + the symbol's index in peq; 0 until it enters
	peq  [maxBandSymbols]uint64
	n    int
	off  int
}

// enter marks row i as holding symbol c; false if the table is full.
func (t *bandSymbols) enter(c byte, i int) bool {
	s := t.slot[c]
	if s == 0 {
		if t.n == maxBandSymbols {
			return false
		}
		t.n++
		s = uint8(t.n)
		t.slot[c] = s
	}
	t.peq[s-1] |= 1 << uint(i-t.off)
	return true
}

// rebase shifts every bitset so that bit 0 is row top.
func (t *bandSymbols) rebase(top int) {
	for s := range t.peq[:t.n] {
		t.peq[s] >>= uint(top - t.off)
	}
	t.off = top
}

// match returns the rows top, top+1, … holding symbol c, row top at bit 0.
func (t *bandSymbols) match(c byte, top int) uint64 {
	if s := t.slot[c]; s != 0 {
		return t.peq[s-1] >> uint(top-t.off)
	}
	return 0
}

// bandDP is EditDistanceBounded's fallback for bands wider than a word or
// more than maxBandSymbols symbols: the DP over the band |i−j| ≤ k in
// diagonal coordinates, one row of 2k+3 cells updated in place. Cell t of
// row i is D[i][i+t−k−1]; cells 0 and 2k+2 stay outside the band. It
// returns the distance if it is at most k and a larger value otherwise.
func bandDP(a, b []byte, k int) int {
	const inf = math.MaxInt / 2
	n, m := len(a), len(b)
	var stack [256]int
	var row []int
	if w := 2*k + 3; w <= len(stack) {
		row = stack[:w]
	} else {
		row = make([]int, w)
	}
	for t := range row {
		row[t] = inf
		if j := t - k - 1; j >= 0 && j <= m && t <= 2*k+1 {
			row[t] = j
		}
	}
	for i := 1; i <= n; i++ {
		ai := a[i-1]
		rowMin := inf
		for t := 1; t <= 2*k+1; t++ {
			// In place: row[t] still holds D[i−1][j−1] and row[t+1]
			// D[i−1][j]; row[t−1] already holds D[i][j−1].
			j := i + t - k - 1
			v := inf
			switch {
			case j == 0:
				v = i
			case j > 0 && j <= m:
				v = row[t]
				if ai != b[j-1] {
					v++
				}
				v = min(v, row[t+1]+1, row[t-1]+1)
			}
			row[t] = v
			rowMin = min(rowMin, v)
		}
		if rowMin > k {
			return k + 1
		}
	}
	return row[m-n+k+1]
}

// Alphabet maps the symbols of a sequence dataset to dense indices. DNA uses
// the 4-letter alphabet ACGT.
type Alphabet struct {
	index [256]int8
	size  int
}

// NewAlphabet builds an alphabet over the given symbols.
func NewAlphabet(symbols string) (*Alphabet, error) {
	if len(symbols) == 0 || len(symbols) > 127 {
		return nil, fmt.Errorf("seqdist: alphabet size %d out of range", len(symbols))
	}
	a := &Alphabet{size: len(symbols)}
	for i := range a.index {
		a.index[i] = -1
	}
	for i := 0; i < len(symbols); i++ {
		if a.index[symbols[i]] >= 0 {
			return nil, fmt.Errorf("seqdist: duplicate symbol %q", symbols[i])
		}
		a.index[symbols[i]] = int8(i)
	}
	return a, nil
}

// DNA is the 4-symbol nucleotide alphabet.
var DNA = mustAlphabet("ACGT")

func mustAlphabet(s string) *Alphabet {
	a, err := NewAlphabet(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Size returns the number of symbols.
func (a *Alphabet) Size() int { return a.size }

// Index returns the dense index of symbol c, or -1 if c is not in the
// alphabet.
func (a *Alphabet) Index(c byte) int { return int(a.index[c]) }

// FreqVector returns the frequency vector of s: component i counts the
// occurrences of symbol i. Symbols outside the alphabet are ignored.
func (a *Alphabet) FreqVector(s []byte) []int {
	f := make([]int, a.size)
	for _, c := range s {
		if i := a.index[c]; i >= 0 {
			f[i]++
		}
	}
	return f
}

// SlideFreq updates frequency vector f in place for a window slide that
// drops symbol out and gains symbol in.
func (a *Alphabet) SlideFreq(f []int, out, in byte) {
	if i := a.index[out]; i >= 0 {
		f[i]--
	}
	if i := a.index[in]; i >= 0 {
		f[i]++
	}
}

// FreqDistance returns the frequency distance between two frequency vectors:
// FD(u,v) = max(Σ_i max(u_i-v_i,0), Σ_i max(v_i-u_i,0)).
//
// FD lower-bounds the edit distance between the underlying strings (each
// edit operation changes at most one positive and one negative frequency
// difference by one), which makes it the lower-bounding predictor for string
// data in Table 1.
func FreqDistance(u, v []int) int {
	if len(u) != len(v) {
		panic(fmt.Sprintf("seqdist: frequency dimension mismatch %d vs %d", len(u), len(v)))
	}
	var pos, neg int
	for i := range u {
		d := u[i] - v[i]
		if d > 0 {
			pos += d
		} else {
			neg -= d
		}
	}
	if pos > neg {
		return pos
	}
	return neg
}

// FreqDistanceMBR returns a lower bound of FreqDistance(u,v) for any u in the
// integer box [uMin,uMax] and v in [vMin,vMax]: for each component the
// smallest achievable positive and negative difference is used.
func FreqDistanceMBR(uMin, uMax, vMin, vMax []int) int {
	var pos, neg int
	for i := range uMin {
		// smallest possible u_i - v_i is uMin[i]-vMax[i]; largest is uMax[i]-vMin[i].
		if d := uMin[i] - vMax[i]; d > 0 {
			pos += d
		}
		if d := vMin[i] - uMax[i]; d > 0 {
			neg += d
		}
	}
	if pos > neg {
		return pos
	}
	return neg
}
