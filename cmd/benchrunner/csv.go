package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"pmjoin/internal/experiments"
)

// writeCSV writes header and rows to path. csv.Writer buffers, so a write
// error (a full disk, say) may show only when WriteAll flushes: that error
// is returned, else the error of closing the file.
func writeCSV(path string, header []string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = csv.NewWriter(f).WriteAll(append([][]string{header}, rows...))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeCostCSV writes a Figure 10/11-style breakdown as CSV.
func writeCostCSV(dir, name string, rows []experiments.CostRow) error {
	if dir == "" {
		return nil
	}
	recs := make([][]string, 0, len(rows))
	for _, r := range rows {
		recs = append(recs, []string{
			r.Method,
			fmt.Sprintf("%.6f", r.Preprocess),
			fmt.Sprintf("%.6f", r.CPUJoin),
			fmt.Sprintf("%.6f", r.IO),
			fmt.Sprintf("%.6f", r.Total()),
			strconv.FormatInt(r.Results, 10),
		})
	}
	return writeCSV(filepath.Join(dir, name+".csv"),
		[]string{"method", "preprocess_s", "cpu_join_s", "io_s", "total_s", "results"}, recs)
}

// writeSweepCSV writes a Figure 12/13/14-style sweep as CSV with one column
// per method.
func writeSweepCSV(dir, name, xLabel string, points []experiments.SweepPoint) error {
	if dir == "" || len(points) == 0 {
		return nil
	}
	methods := map[string]bool{}
	for _, p := range points {
		for m := range p.Totals {
			methods[m] = true
		}
	}
	cols := make([]string, 0, len(methods))
	for m := range methods {
		cols = append(cols, m)
	}
	sort.Strings(cols)

	recs := make([][]string, 0, len(points))
	for _, p := range points {
		rec := []string{strconv.Itoa(p.X)}
		for _, m := range cols {
			if v, ok := p.Totals[m]; ok {
				rec = append(rec, fmt.Sprintf("%.6f", v))
			} else {
				rec = append(rec, "")
			}
		}
		recs = append(recs, rec)
	}
	return writeCSV(filepath.Join(dir, name+".csv"), append([]string{xLabel}, cols...), recs)
}

// writeTable2CSV writes the Table 2 blocks as CSV.
func writeTable2CSV(dir string, blocks []experiments.Table2Block) error {
	if dir == "" {
		return nil
	}
	var recs [][]string
	for _, blk := range blocks {
		for i, b := range blk.Buffers {
			recs = append(recs, []string{
				blk.Pair,
				strconv.Itoa(b),
				fmt.Sprintf("%.6f", blk.SCIO[i]),
				fmt.Sprintf("%.6f", blk.CCIO[i]),
			})
		}
	}
	return writeCSV(filepath.Join(dir, "table2.csv"), []string{"pair", "buffer", "sc_io_s", "cc_io_s"}, recs)
}
