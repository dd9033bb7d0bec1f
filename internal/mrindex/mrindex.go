// Package mrindex implements the MR-index of Kahveci & Singh (ICDE 2001) in
// the form the paper's join needs: a hierarchy of MBRs over the sliding
// windows of a time series, where each leaf MBR covers the windows stored in
// one disk page and the contents of each leaf are contiguous on disk
// (Table 1, §5.1).
//
// Windows are reduced to PAA (piecewise aggregate approximation) features;
// the L2 distance between features, scaled by sqrt(segment length), lower
// bounds the L2 distance between the raw windows, giving the lower-bounding
// distance predictor required by the prediction matrix.
package mrindex

import (
	"fmt"
	"math"

	"pmjoin/internal/geom"
	"pmjoin/internal/index"
)

// Config controls the layout of an MR-index.
type Config struct {
	// Window is the subsequence length w of the subsequence join.
	Window int
	// Stride is the distance between consecutive window starts.
	Stride int
	// Features is the PAA feature dimensionality (default 8).
	Features int
	// PageSamples is the number of raw samples one disk page holds
	// (page bytes / 8 for float64 samples).
	PageSamples int
	// Fanout is the number of children per internal node (default 16).
	Fanout int
	// BoxWindows is the number of consecutive windows covered by one leaf
	// MBR (default 1). Like the MRS-index, the MR-index is multi-resolution:
	// several leaf boxes may share one data page, keeping feature boxes
	// tight when windows are sampled with a large stride.
	BoxWindows int
}

func (c *Config) defaults() error {
	if c.Window < 1 {
		return fmt.Errorf("mrindex: window %d < 1", c.Window)
	}
	if c.Stride < 1 {
		return fmt.Errorf("mrindex: stride %d < 1", c.Stride)
	}
	if c.Features == 0 {
		c.Features = 8
	}
	if c.Features < 1 || c.Features > c.Window {
		return fmt.Errorf("mrindex: features %d outside [1,%d]", c.Features, c.Window)
	}
	if c.PageSamples < c.Window {
		return fmt.Errorf("mrindex: page of %d samples cannot hold a window of %d", c.PageSamples, c.Window)
	}
	if c.Fanout == 0 {
		c.Fanout = 16
	}
	if c.Fanout < 2 {
		return fmt.Errorf("mrindex: fanout %d < 2", c.Fanout)
	}
	if c.BoxWindows == 0 {
		c.BoxWindows = 1
	}
	if c.BoxWindows < 1 {
		return fmt.Errorf("mrindex: box windows %d < 1", c.BoxWindows)
	}
	return nil
}

// WindowsPerPage returns how many windows fit in one page: the page stores
// the raw samples spanning its windows, (count-1)*stride + window samples.
func (c Config) WindowsPerPage() int {
	n := (c.PageSamples-c.Window)/c.Stride + 1
	if n < 1 {
		n = 1
	}
	return n
}

// Index is the built MR-index over one series.
type Index struct {
	cfg      Config
	series   []float64
	starts   []int // window start offsets, ascending
	root     *index.Node
	pages    int
	segLen   int     // PAA segment length
	scale    float64 // sqrt(segLen): feature distance × scale ≤ raw L2
	features []geom.Vector
}

// Build constructs the MR-index over the series.
func Build(series []float64, cfg Config) (*Index, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if len(series) < cfg.Window {
		return nil, fmt.Errorf("mrindex: series of %d samples shorter than window %d", len(series), cfg.Window)
	}
	ix := &Index{cfg: cfg, series: series}
	ix.segLen = cfg.Window / cfg.Features
	if ix.segLen < 1 {
		ix.segLen = 1
	}
	ix.scale = math.Sqrt(float64(ix.segLen))
	for st := 0; st+cfg.Window <= len(series); st += cfg.Stride {
		ix.starts = append(ix.starts, st)
	}
	ix.features = make([]geom.Vector, len(ix.starts))
	for i, st := range ix.starts {
		ix.features[i] = PAA(series[st:st+cfg.Window], cfg.Features)
	}

	perPage := cfg.WindowsPerPage()
	ix.pages = (len(ix.starts) + perPage - 1) / perPage
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
			mbr := geom.EmptyMBR(cfg.Features)
			for i := lo; i < hi; i++ {
				mbr.ExtendPoint(ix.features[i])
			}
			leaves = append(leaves, &index.Node{MBR: mbr, Page: page})
		}
	}
	ix.root = index.BuildHierarchy(leaves, cfg.Fanout)
	return ix, nil
}

// Root returns the MBR hierarchy; each leaf carries its page number.
func (ix *Index) Root() *index.Node { return ix.root }

// NumPages returns the number of data pages.
func (ix *Index) NumPages() int { return ix.pages }

// Scale returns the factor by which feature-space distances must be
// multiplied to lower-bound raw L2 distances.
func (ix *Index) Scale() float64 { return ix.scale }

// NumWindows returns the number of indexed windows.
func (ix *Index) NumWindows() int { return len(ix.starts) }

// PageWindows returns, for page p, the window ids [lo,hi), their start
// offsets, and the raw windows. Raw windows alias the underlying series.
func (ix *Index) PageWindows(p int) (ids []int, starts []int, windows [][]float64) {
	perPage := ix.cfg.WindowsPerPage()
	lo := p * perPage
	hi := lo + perPage
	if hi > len(ix.starts) {
		hi = len(ix.starts)
	}
	for i := lo; i < hi; i++ {
		ids = append(ids, i)
		starts = append(starts, ix.starts[i])
		windows = append(windows, ix.series[ix.starts[i]:ix.starts[i]+ix.cfg.Window])
	}
	return ids, starts, windows
}

// Feature returns the PAA feature of window i (for tests).
func (ix *Index) Feature(i int) geom.Vector { return ix.features[i] }

// Config returns the layout parameters.
func (ix *Index) Config() Config { return ix.cfg }

// PAA computes the f-segment piecewise aggregate approximation of window:
// the mean of each of the first f segments of length len(window)/f.
func PAA(window []float64, f int) geom.Vector {
	seg := len(window) / f
	if seg < 1 {
		seg = 1
	}
	out := make(geom.Vector, f)
	for i := 0; i < f; i++ {
		lo := i * seg
		hi := lo + seg
		if hi > len(window) {
			hi = len(window)
		}
		if lo >= hi {
			break
		}
		var s float64
		for k := lo; k < hi; k++ {
			s += window[k]
		}
		out[i] = s / float64(hi-lo)
	}
	return out
}

// LowerBound returns the PAA lower bound of the L2 distance between two
// windows given their features: sqrt(seg) * L2(featA, featB).
func (ix *Index) LowerBound(featA, featB geom.Vector) float64 {
	return ix.scale * geom.L2.Dist(featA, featB)
}
