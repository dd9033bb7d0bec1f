// Package mrsindex implements the MRS-index of Kahveci & Singh (VLDB 2001)
// in the form the paper's join needs: a hierarchy of MBRs over the frequency
// vectors of a string's sliding windows, with leaf MBRs covering the windows
// of one disk page (contiguous on disk), and the frequency distance as the
// lower-bounding predictor for edit distance (Table 1).
package mrsindex

import (
	"fmt"
	"math"

	"pmjoin/internal/geom"
	"pmjoin/internal/index"
	"pmjoin/internal/seqdist"
)

// Config controls the layout of an MRS-index.
type Config struct {
	// Window is the subsequence length w of the subsequence join.
	Window int
	// Stride is the distance between consecutive window starts.
	Stride int
	// PageBytes is the number of sequence bytes one disk page holds.
	PageBytes int
	// Fanout is the number of children per internal node (default 16).
	Fanout int
	// BoxWindows is the number of consecutive windows covered by one leaf
	// MBR (default 1). The MRS-index is multi-resolution: leaf boxes can be
	// finer than a page — several leaves then share one data page — which
	// keeps the frequency boxes tight enough to prune when windows are
	// sampled with a large stride.
	BoxWindows int
}

func (c *Config) defaults() error {
	if c.Window < 1 {
		return fmt.Errorf("mrsindex: window %d < 1", c.Window)
	}
	if c.Stride < 1 {
		return fmt.Errorf("mrsindex: stride %d < 1", c.Stride)
	}
	if c.PageBytes < c.Window {
		return fmt.Errorf("mrsindex: page of %d bytes cannot hold a window of %d", c.PageBytes, c.Window)
	}
	if c.Fanout == 0 {
		c.Fanout = 16
	}
	if c.Fanout < 2 {
		return fmt.Errorf("mrsindex: fanout %d < 2", c.Fanout)
	}
	if c.BoxWindows == 0 {
		c.BoxWindows = 1
	}
	if c.BoxWindows < 1 {
		return fmt.Errorf("mrsindex: box windows %d < 1", c.BoxWindows)
	}
	return nil
}

// WindowsPerPage returns how many windows one page covers.
func (c Config) WindowsPerPage() int {
	n := (c.PageBytes-c.Window)/c.Stride + 1
	if n < 1 {
		n = 1
	}
	return n
}

// Index is the built MRS-index over one sequence.
type Index struct {
	cfg      Config
	alphabet *seqdist.Alphabet
	seq      []byte
	starts   []int
	freqs    [][]int
	root     *index.Node
	pages    int
}

// Build constructs the MRS-index over seq using the given alphabet.
func Build(seq []byte, alphabet *seqdist.Alphabet, cfg Config) (*Index, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if len(seq) < cfg.Window {
		return nil, fmt.Errorf("mrsindex: sequence of %d bytes shorter than window %d", len(seq), cfg.Window)
	}
	ix := &Index{cfg: cfg, alphabet: alphabet, seq: seq}
	for st := 0; st+cfg.Window <= len(seq); st += cfg.Stride {
		ix.starts = append(ix.starts, st)
	}
	// Frequency vectors by sliding where stride allows, else fresh counts.
	ix.freqs = make([][]int, len(ix.starts))
	for i, st := range ix.starts {
		if i > 0 && cfg.Stride == 1 {
			f := append([]int(nil), ix.freqs[i-1]...)
			alphabet.SlideFreq(f, seq[st-1], seq[st+cfg.Window-1])
			ix.freqs[i] = f
		} else {
			ix.freqs[i] = alphabet.FreqVector(seq[st : st+cfg.Window])
		}
	}

	perPage := cfg.WindowsPerPage()
	ix.pages = (len(ix.starts) + perPage - 1) / perPage
	dim := alphabet.Size()
	// Leaf boxes cover BoxWindows consecutive windows each, never crossing a
	// page boundary, and carry the page that stores their windows.
	var leaves []*index.Node
	for pageLo := 0; pageLo < len(ix.starts); pageLo += perPage {
		pageHi := pageLo + perPage
		if pageHi > len(ix.starts) {
			pageHi = len(ix.starts)
		}
		page := pageLo / perPage
		for lo := pageLo; lo < pageHi; lo += cfg.BoxWindows {
			hi := lo + cfg.BoxWindows
			if hi > pageHi {
				hi = pageHi
			}
			mbr := geom.EmptyMBR(dim)
			for i := lo; i < hi; i++ {
				mbr.ExtendPoint(freqToVec(ix.freqs[i]))
			}
			leaves = append(leaves, &index.Node{MBR: mbr, Page: page})
		}
	}
	ix.root = index.BuildHierarchy(leaves, cfg.Fanout)
	return ix, nil
}

func freqToVec(f []int) geom.Vector {
	v := make(geom.Vector, len(f))
	for i, x := range f {
		v[i] = float64(x)
	}
	return v
}

// Root returns the MBR hierarchy; each leaf carries its page number.
func (ix *Index) Root() *index.Node { return ix.root }

// NumPages returns the number of data pages.
func (ix *Index) NumPages() int { return ix.pages }

// NumWindows returns the number of indexed windows.
func (ix *Index) NumWindows() int { return len(ix.starts) }

// Config returns the layout parameters.
func (ix *Index) Config() Config { return ix.cfg }

// PageWindows returns, for page p, the window ids, start offsets, raw
// windows (aliasing the sequence), and frequency vectors.
func (ix *Index) PageWindows(p int) (ids []int, starts []int, windows [][]byte, freqs [][]int) {
	perPage := ix.cfg.WindowsPerPage()
	lo := p * perPage
	hi := lo + perPage
	if hi > len(ix.starts) {
		hi = len(ix.starts)
	}
	for i := lo; i < hi; i++ {
		ids = append(ids, i)
		starts = append(starts, ix.starts[i])
		windows = append(windows, ix.seq[ix.starts[i]:ix.starts[i]+ix.cfg.Window])
		freqs = append(freqs, ix.freqs[i])
	}
	return ids, starts, windows, freqs
}

// Freq returns the frequency vector of window i (for tests).
func (ix *Index) Freq(i int) []int { return ix.freqs[i] }

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
