// Package mrindex implements the MR-index of Kahveci & Singh (ICDE 2001) in
// the form the paper's join needs: a hierarchy of MBRs over the sliding
// windows of a time series, with one leaf MBR per window carrying the disk
// page that stores it, consecutive windows sharing a page, so the contents of
// each leaf are contiguous on disk (Table 1, §5.1). The layout is
// internal/index.Windows, shared with the MRS-index.
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

// Config controls the layout of an MR-index. Each window is one leaf box,
// under a fanout-16 hierarchy (internal/index.Windows).
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
}

// Index is the built MR-index over one series.
type Index struct {
	cfg     Config
	series  []float64
	windows index.Windows
	root    *index.Node
	scale   float64 // sqrt(segment length): feature distance × scale ≤ raw L2
}

// Build constructs the MR-index over the series.
func Build(series []float64, cfg Config) (*Index, error) {
	windows, err := index.NewWindows(len(series), cfg.Window, cfg.Stride, cfg.PageSamples)
	if err != nil {
		return nil, fmt.Errorf("mrindex: %w", err)
	}
	if cfg.Features == 0 {
		cfg.Features = 8
	}
	if cfg.Features < 1 || cfg.Features > cfg.Window {
		return nil, fmt.Errorf("mrindex: features %d outside [1,%d]", cfg.Features, cfg.Window)
	}
	features := make([]geom.Vector, len(windows.Starts))
	for i, st := range windows.Starts {
		features[i] = PAA(series[st:st+cfg.Window], cfg.Features)
	}
	return &Index{
		cfg:     cfg,
		series:  series,
		windows: windows,
		root:    windows.Tree(features),
		scale:   math.Sqrt(float64(max(cfg.Window/cfg.Features, 1))),
	}, nil
}

// Root returns the MBR hierarchy; each leaf carries its page number.
func (ix *Index) Root() *index.Node { return ix.root }

// NumPages returns the number of data pages.
func (ix *Index) NumPages() int { return ix.windows.Pages() }

// Scale returns the factor by which feature-space distances must be
// multiplied to lower-bound raw L2 distances.
func (ix *Index) Scale() float64 { return ix.scale }

// NumWindows returns the number of indexed windows.
func (ix *Index) NumWindows() int { return len(ix.windows.Starts) }

// PageWindows returns, for page p, the window ids, their start offsets, and
// the raw windows. Raw windows alias the underlying series.
func (ix *Index) PageWindows(p int) (ids []int, starts []int, windows [][]float64) {
	return index.PageWindows(ix.windows, ix.series, p)
}

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
