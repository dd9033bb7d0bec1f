// Package join executes similarity joins over the simulated disk and buffer:
// block nested loop join (NLJ), prediction-matrix NLJ (pm-NLJ, §6), and the
// clustered joins (SC / random-SC / CC, §7-8). Every executor is charged
// through the same disk, buffer, and CPU cost models so their relative costs
// reproduce the paper's measurements.
package join

import (
	"fmt"

	"pmjoin/internal/disk"
	"pmjoin/internal/index"
)

// Dataset is a joinable dataset: a page file on the simulated disk plus the
// MBR hierarchy whose leaves map 1:1 to the file's pages.
type Dataset struct {
	Name  string
	File  disk.FileID
	Root  *index.Node
	Pages int
}

// Validate checks that the hierarchy matches the page file: every node's MBR
// contains its children's, and the leaves cover every page. It walks the
// whole index, so it is a test's check: the loaders build trees that pass
// it by construction (the root package's TestIngestedDatasetsValidate holds
// them to it), and ingest and every join make only its O(1) part, Check.
func (d *Dataset) Validate(dk *disk.Disk) error {
	if err := d.Check(dk); err != nil {
		return err
	}
	if err := d.Root.Validate(); err != nil {
		return fmt.Errorf("join: dataset %q: %w", d.Name, err)
	}
	// Several leaves may share a page (multi-resolution sequence indexes),
	// but every page must be covered and every leaf in range.
	leaves := d.Root.Leaves(nil)
	if len(leaves) < d.Pages {
		return fmt.Errorf("join: dataset %q has %d leaves for %d pages", d.Name, len(leaves), d.Pages)
	}
	seen, covered := make([]bool, d.Pages), 0
	for _, l := range leaves {
		if l.Page < 0 || l.Page >= d.Pages {
			return fmt.Errorf("join: dataset %q leaf page %d out of range", d.Name, l.Page)
		}
		if !seen[l.Page] {
			seen[l.Page] = true
			covered++
		}
	}
	if covered != d.Pages {
		return fmt.Errorf("join: dataset %q leaves cover %d of %d pages", d.Name, covered, d.Pages)
	}
	return nil
}

// Check is Validate's O(1) part: the dataset has an index, and it declares
// as many pages as its file holds.
func (d *Dataset) Check(dk *disk.Disk) error {
	if d.Root == nil {
		return fmt.Errorf("join: dataset %q has no index", d.Name)
	}
	if got := dk.NumPages(d.File); got != d.Pages {
		return fmt.Errorf("join: dataset %q declares %d pages, file has %d", d.Name, d.Pages, got)
	}
	return nil
}

// Report is the cost breakdown of one join execution. All seconds are
// simulated/modeled, not wall-clock: I/O from the linear disk model, CPU
// from counted object comparisons, preprocessing from the clustering model.
type Report struct {
	Method string

	IOSeconds         float64 // simulated disk time
	CPUJoinSeconds    float64 // modeled comparison time
	PreprocessSeconds float64 // modeled clustering + scheduling time

	PageReads int64 // pages fetched from disk
	Seeks     int64 // fetches that were random
	Hits      int64 // buffer hits
	Misses    int64 // buffer misses

	Comparisons   int64 // object-pair comparisons performed
	Results       int64 // result pairs found
	MarkedEntries int   // prediction-matrix marks (0 for NLJ)
	Clusters      int   // clusters processed (0 for NLJ / pm-NLJ)
}

// Total returns the total simulated cost in seconds.
func (r *Report) Total() float64 {
	return r.IOSeconds + r.CPUJoinSeconds + r.PreprocessSeconds
}

func (r *Report) String() string {
	return fmt.Sprintf("%s: total=%.3fs (io=%.3fs cpu=%.3fs pre=%.3fs) reads=%d seeks=%d results=%d",
		r.Method, r.Total(), r.IOSeconds, r.CPUJoinSeconds, r.PreprocessSeconds,
		r.PageReads, r.Seeks, r.Results)
}

// Modeled CPU constants for preprocessing (§9.1 reports clustering as a
// small separate preprocessing cost). These are per-unit costs of the
// clustering and scheduling algorithms' dominant operations.
const (
	// SCEntryCost models the two passes of SC over the marked entries
	// (O(m), §7.1).
	SCEntryCost = 100e-9
	// CCEntryCost models CC's O(m^1.5) threshold-algorithm expansion
	// (§7.2); charged per unit of m^1.5.
	CCEntryCost = 200e-9
	// SchedEdgeCost models the O(|E| log |E|) greedy path construction
	// (§8); charged per edge log-factor unit.
	SchedEdgeCost = 100e-9
	// MatrixEntryCost models prediction-matrix construction work per sweep
	// event (§5.2). Reported separately; Figure 10 counts only clustering
	// as "Preprocess".
	MatrixEntryCost = 50e-9
)
