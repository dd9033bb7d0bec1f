// Package mrsindex implements the MRS-index of Kahveci & Singh (VLDB 2001)
// in the form the paper's join needs: a hierarchy of MBRs over the frequency
// vectors of a string's sliding windows, with one leaf MBR per window
// carrying the disk page that stores it (consecutive windows share a page,
// contiguous on disk; the layout is internal/index.Windows, shared with the
// MR-index), and the frequency distance as the lower-bounding predictor for
// edit distance (Table 1).
package mrsindex

import (
	"fmt"
	"math"

	"pmjoin/internal/geom"
	"pmjoin/internal/index"
	"pmjoin/internal/seqdist"
)

// Config controls the layout of an MRS-index. Each window is one leaf box,
// under a fanout-16 hierarchy (internal/index.Windows).
type Config struct {
	// Window is the subsequence length w of the subsequence join.
	Window int
	// Stride is the distance between consecutive window starts.
	Stride int
	// PageBytes is the number of sequence bytes one disk page holds.
	PageBytes int
}

// Index is the built MRS-index over one sequence.
type Index struct {
	cfg     Config
	seq     []byte
	windows index.Windows
	freqs   [][]int
	root    *index.Node
}

// Build constructs the MRS-index over seq using the given alphabet.
func Build(seq []byte, alphabet *seqdist.Alphabet, cfg Config) (*Index, error) {
	windows, err := index.NewWindows(len(seq), cfg.Window, cfg.Stride, cfg.PageBytes)
	if err != nil {
		return nil, fmt.Errorf("mrsindex: %w", err)
	}
	// Frequency vectors by sliding where stride allows, else fresh counts.
	freqs := make([][]int, len(windows.Starts))
	points := make([]geom.Vector, len(windows.Starts))
	for i, st := range windows.Starts {
		if i > 0 && cfg.Stride == 1 {
			f := append([]int(nil), freqs[i-1]...)
			alphabet.SlideFreq(f, seq[st-1], seq[st+cfg.Window-1])
			freqs[i] = f
		} else {
			freqs[i] = alphabet.FreqVector(seq[st : st+cfg.Window])
		}
		points[i] = make(geom.Vector, len(freqs[i]))
		for d, x := range freqs[i] {
			points[i][d] = float64(x)
		}
	}
	return &Index{cfg: cfg, seq: seq, windows: windows, freqs: freqs, root: windows.Tree(points)}, nil
}

// Root returns the MBR hierarchy; each leaf carries its page number.
func (ix *Index) Root() *index.Node { return ix.root }

// NumPages returns the number of data pages.
func (ix *Index) NumPages() int { return ix.windows.Pages() }

// NumWindows returns the number of indexed windows.
func (ix *Index) NumWindows() int { return len(ix.windows.Starts) }

// Config returns the layout parameters.
func (ix *Index) Config() Config { return ix.cfg }

// PageWindows returns, for page p, the window ids, start offsets, raw
// windows (aliasing the sequence), and frequency vectors.
func (ix *Index) PageWindows(p int) (ids []int, starts []int, windows [][]byte, freqs [][]int) {
	ids, starts, windows = index.PageWindows(ix.windows, ix.seq, p)
	lo, hi := ix.windows.Page(p)
	return ids, starts, windows, ix.freqs[lo:hi:hi]
}

// Predictor is the frequency-distance lower-bounding predictor between MBRs
// in frequency space. It satisfies predmat.Predictor and dominates the
// L∞ box gap, which the plane sweep's ε/2 extension requires.
type Predictor struct{}

// stackSymbols is the largest alphabet whose hulls LowerBound keeps on the
// stack.
const stackSymbols = 32

// LowerBound returns FreqDistanceMBR over the integer hulls of a and b. A
// matrix build calls it once for every leaf pair whose boxes meet, so for
// alphabets of up to stackSymbols symbols it allocates nothing.
func (Predictor) LowerBound(a, b geom.MBR) float64 {
	if a.IsEmpty() || b.IsEmpty() {
		return math.Inf(1)
	}
	dim := a.Dim()
	var buf [4 * stackSymbols]int
	hulls := buf[:]
	if dim > stackSymbols {
		hulls = make([]int, 4*dim)
	}
	uMin, uMax, vMin, vMax := hulls[:dim], hulls[dim:2*dim], hulls[2*dim:3*dim], hulls[3*dim:4*dim]
	for i := 0; i < dim; i++ {
		uMin[i] = int(math.Ceil(a.Min[i]))
		uMax[i] = int(math.Floor(a.Max[i]))
		vMin[i] = int(math.Ceil(b.Min[i]))
		vMax[i] = int(math.Floor(b.Max[i]))
	}
	return float64(seqdist.FreqDistanceMBR(uMin, uMax, vMin, vMax))
}
