package experiments

import (
	"fmt"

	"pmjoin"
	"pmjoin/internal/dataset"
)

// AblationRow is one variant's outcome in an ablation study.
type AblationRow struct {
	Variant string
	IO      float64
	Total   float64
	Matrix  float64 // modeled matrix-construction seconds
	Marked  int
	// MatrixWall is the measured matrix-construction wall time in seconds;
	// only the filter-depth ablation, whose every variant builds its own
	// matrix, sets it.
	MatrixWall float64
}

// AblationFilterDepth measures the effect of the Figure 2 filter depth (k)
// on prediction-matrix construction: the matrix itself must be identical
// (the filter only prunes work), so the interesting output is the sweep
// effort, reflected in MatrixSeconds, and the measured build wall time.
func AblationFilterDepth(cfg *Config) ([]AblationRow, error) {
	cfg.defaults()
	sys, da, db, eps, err := SpatialPair(cfg)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, depth := range []int{-1, 1, 5} {
		res, err := sys.Join(da, db, pmjoin.Options{
			Method: pmjoin.PMNLJ, Epsilon: eps, BufferPages: cfg.buf(25), FilterDepth: depth,
		})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("k=%d", depth)
		if depth < 0 {
			label = "no-filter"
		}
		rows = append(rows, AblationRow{
			Variant: label,
			IO:      res.Report.IOSeconds,
			Total:   res.TotalSeconds() + res.MatrixSeconds,
			Matrix:  res.MatrixSeconds,
			Marked:  res.MarkedEntries,

			MatrixWall: res.Exec.MatrixWall.Seconds(),
		})
	}
	cfg.printf("\nAblation: prediction-matrix filter depth (total includes matrix construction; wall is measured)\n")
	cfg.printf("%-12s %12s %12s %12s %12s %10s\n", "variant", "io", "total", "matrix", "wall ms", "marked")
	for _, r := range rows {
		cfg.printf("%-12s %12.2f %12.2f %12.4f %12.2f %10d\n", r.Variant, r.IO, r.Total, r.Matrix, r.MatrixWall*1e3, r.Marked)
	}
	return rows, nil
}

// AblationClusterShape compares the paper's square clusters (r = c = B/2)
// with skewed rectangles, validating observation 1 of Theorem 2.
func AblationClusterShape(cfg *Config) ([]AblationRow, error) {
	cfg.defaults()
	sys, da, db, eps, err := SpatialPair(cfg)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		res, err := sys.Join(da, db, pmjoin.Options{
			Method: pmjoin.SC, Epsilon: eps, BufferPages: cfg.buf(25), ClusterRowFraction: frac,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant: fmt.Sprintf("rows=%.0f%%", frac*100),
			IO:      res.Report.IOSeconds,
			Total:   res.TotalSeconds(),
			Marked:  res.MarkedEntries,
		})
	}
	printAblation(cfg, "Ablation: SC cluster shape (buffer fraction devoted to rows)", rows)
	return rows, nil
}

// AblationSchedule compares the greedy sharing-graph cluster order (SC)
// against a random order (random-SC), Optimization 3 of §9.1.
func AblationSchedule(cfg *Config) ([]AblationRow, error) {
	cfg.defaults()
	sys, da, db, eps, err := SpatialPair(cfg)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, m := range []pmjoin.Method{pmjoin.SC, pmjoin.RandomSC} {
		res, err := sys.Join(da, db, pmjoin.Options{Method: m, Epsilon: eps, BufferPages: cfg.buf(25)})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant: m.String(),
			IO:      res.Report.IOSeconds,
			Total:   res.TotalSeconds(),
			Marked:  res.MarkedEntries,
		})
	}
	printAblation(cfg, "Ablation: cluster scheduling (greedy sharing graph vs random)", rows)
	return rows, nil
}

// AblationHistogram sweeps CC's density-histogram resolution.
func AblationHistogram(cfg *Config) ([]AblationRow, error) {
	cfg.defaults()
	sys, da, db, eps, err := SpatialPair(cfg)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, bins := range []int{10, 100, 400} {
		res, err := sys.Join(da, db, pmjoin.Options{
			Method: pmjoin.CC, Epsilon: eps, BufferPages: cfg.buf(25), HistogramBins: bins,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant: fmt.Sprintf("bins=%d", bins),
			IO:      res.Report.IOSeconds,
			Total:   res.TotalSeconds(),
			Marked:  res.MarkedEntries,
		})
	}
	printAblation(cfg, "Ablation: CC histogram resolution", rows)
	return rows, nil
}

// AblationReplacement compares LRU and FIFO replacement under pm-NLJ, whose
// access pattern is the one most sensitive to the policy.
func AblationReplacement(cfg *Config) ([]AblationRow, error) {
	cfg.defaults()
	sys, da, db, eps, err := SpatialPair(cfg)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, pol := range []pmjoin.ReplacementPolicy{pmjoin.LRU, pmjoin.FIFO} {
		res, err := sys.Join(da, db, pmjoin.Options{
			Method: pmjoin.PMNLJ, Epsilon: eps, BufferPages: cfg.buf(25), Policy: pol,
		})
		if err != nil {
			return nil, err
		}
		label := "LRU"
		if pol == pmjoin.FIFO {
			label = "FIFO"
		}
		rows = append(rows, AblationRow{
			Variant: label,
			IO:      res.Report.IOSeconds,
			Total:   res.TotalSeconds(),
			Marked:  res.MarkedEntries,
		})
	}
	printAblation(cfg, "Ablation: buffer replacement policy under pm-NLJ", rows)
	return rows, nil
}

func printAblation(cfg *Config, title string, rows []AblationRow) {
	cfg.printf("\n%s\n", title)
	cfg.printf("%-12s %12s %12s %12s %10s\n", "variant", "io", "total", "matrix", "marked")
	for _, r := range rows {
		cfg.printf("%-12s %12.2f %12.2f %12.4f %10d\n", r.Variant, r.IO, r.Total, r.Matrix, r.Marked)
	}
}

// AblationReadahead sweeps the disk model's readahead window, showing how
// sensitive each method's I/O is to short-stride streaming. The join results
// are identical in all variants; only costs move.
func AblationReadahead(cfg *Config) ([]AblationRow, error) {
	cfg.defaults()
	var rows []AblationRow
	for _, ra := range []int{-1, 4, 16} {
		sys := pmjoin.NewSystem(pmjoin.DiskModel{PageBytes: 1024, ReadaheadPages: ra})
		la := dataset.ToFloats(dataset.RoadIntersections(cfg.n(dataset.LBeachSize), cfg.Seed))
		mc := dataset.ToFloats(dataset.RoadIntersections(cfg.n(dataset.MCountySize), cfg.Seed+1))
		da, err := sys.AddVectors("LBeach", la, pmjoin.VectorOptions{PageBytes: 1024})
		if err != nil {
			return nil, err
		}
		db, err := sys.AddVectors("MCounty", mc, pmjoin.VectorOptions{PageBytes: 1024})
		if err != nil {
			return nil, err
		}
		eps, err := sys.CalibrateEpsilon(da, db, spatialDensity)
		if err != nil {
			return nil, err
		}
		res, err := sys.Join(da, db, pmjoin.Options{Method: pmjoin.SC, Epsilon: eps, BufferPages: cfg.buf(25)})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("ra=%d", ra)
		if ra < 0 {
			label = "ra=off"
		}
		rows = append(rows, AblationRow{
			Variant: label,
			IO:      res.Report.IOSeconds,
			Total:   res.TotalSeconds(),
			Marked:  res.MarkedEntries,
		})
	}
	printAblation(cfg, "Ablation: disk readahead window (SC join)", rows)
	return rows, nil
}

// AblationSeekRatio sweeps the seek/transfer cost ratio, showing where the
// clustered join's advantage over NLJ comes from: the cheaper seeks are, the
// smaller the gap.
func AblationSeekRatio(cfg *Config) ([]AblationRow, error) {
	cfg.defaults()
	var rows []AblationRow
	for _, ratio := range []float64{2, 10, 50} {
		sys := pmjoin.NewSystem(pmjoin.DiskModel{
			PageBytes:       1024,
			SeekSeconds:     ratio * 1e-3,
			TransferSeconds: 1e-3,
		})
		la := dataset.ToFloats(dataset.RoadIntersections(cfg.n(dataset.LBeachSize), cfg.Seed))
		mc := dataset.ToFloats(dataset.RoadIntersections(cfg.n(dataset.MCountySize), cfg.Seed+1))
		da, err := sys.AddVectors("LBeach", la, pmjoin.VectorOptions{PageBytes: 1024})
		if err != nil {
			return nil, err
		}
		db, err := sys.AddVectors("MCounty", mc, pmjoin.VectorOptions{PageBytes: 1024})
		if err != nil {
			return nil, err
		}
		eps, err := sys.CalibrateEpsilon(da, db, spatialDensity)
		if err != nil {
			return nil, err
		}
		sc, err := sys.Join(da, db, pmjoin.Options{Method: pmjoin.SC, Epsilon: eps, BufferPages: cfg.buf(25)})
		if err != nil {
			return nil, err
		}
		nlj, err := sys.Join(da, db, pmjoin.Options{Method: pmjoin.NLJ, Epsilon: eps, BufferPages: cfg.buf(25)})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant: fmt.Sprintf("seek=%gx", ratio),
			IO:      sc.Report.IOSeconds,
			Total:   nlj.TotalSeconds() / sc.TotalSeconds(), // NLJ/SC speedup
			Marked:  sc.MarkedEntries,
		})
	}
	cfg.printf("\nAblation: seek/transfer ratio (io = SC I/O; total column = NLJ/SC speedup)\n")
	cfg.printf("%-12s %12s %12s %10s\n", "variant", "sc-io", "speedup", "marked")
	for _, r := range rows {
		cfg.printf("%-12s %12.2f %12.2f %10d\n", r.Variant, r.IO, r.Total, r.Marked)
	}
	return rows, nil
}
