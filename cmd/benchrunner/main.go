// Command benchrunner regenerates the paper's tables and figures
// ("Joining Massive High-Dimensional Datasets", ICDE 2003) on the simulated
// disk and prints the same rows/series the paper reports.
//
// Usage:
//
//	benchrunner [-exp all|fig10|...|table2|ablations] [-scale 0.25] [-seed 1]
//
// Scale 1.0 uses the paper's exact dataset cardinalities and buffer sizes
// (several minutes of wall time); the default 0.25 scales cardinalities and
// buffers together, preserving every page/buffer ratio and therefore the
// paper's crossovers.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pmjoin/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, fig10, fig11, fig12, fig13a, fig13b, fig13c, fig14, table2, ablations")
	scale := flag.Float64("scale", 0.25, "dataset/buffer scale factor (1.0 = paper size)")
	seed := flag.Int64("seed", 1, "workload generation seed")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV files (optional)")
	flag.Parse()
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "csv dir: %v\n", err)
			os.Exit(1)
		}
	}

	cfg := &experiments.Config{Scale: *scale, Seed: *seed, Out: os.Stdout}

	type runner struct {
		name string
		run  func(*experiments.Config) error
	}
	runners := []runner{
		{"fig10", func(c *experiments.Config) error {
			rows, err := experiments.Fig10(c)
			if err != nil {
				return err
			}
			return writeCostCSV(*csvDir, "fig10", rows)
		}},
		{"fig11", func(c *experiments.Config) error {
			rows, err := experiments.Fig11(c)
			if err != nil {
				return err
			}
			return writeCostCSV(*csvDir, "fig11", rows)
		}},
		{"fig12", func(c *experiments.Config) error {
			points, err := experiments.Fig12(c)
			if err != nil {
				return err
			}
			return writeSweepCSV(*csvDir, "fig12", "buffer", points)
		}},
		{"table2", func(c *experiments.Config) error {
			blocks, err := experiments.Table2(c)
			if err != nil {
				return err
			}
			return writeTable2CSV(*csvDir, blocks)
		}},
		{"fig13a", func(c *experiments.Config) error {
			points, err := experiments.Fig13a(c)
			if err != nil {
				return err
			}
			return writeSweepCSV(*csvDir, "fig13a", "buffer", points)
		}},
		{"fig13b", func(c *experiments.Config) error {
			points, err := experiments.Fig13b(c)
			if err != nil {
				return err
			}
			return writeSweepCSV(*csvDir, "fig13b", "buffer", points)
		}},
		{"fig13c", func(c *experiments.Config) error {
			points, err := experiments.Fig13c(c)
			if err != nil {
				return err
			}
			return writeSweepCSV(*csvDir, "fig13c", "buffer", points)
		}},
		{"fig14", func(c *experiments.Config) error {
			points, err := experiments.Fig14(c)
			if err != nil {
				return err
			}
			return writeSweepCSV(*csvDir, "fig14", "tuples", points)
		}},
		{"ablations", func(c *experiments.Config) error {
			if _, err := experiments.AblationFilterDepth(c); err != nil {
				return err
			}
			if _, err := experiments.AblationClusterShape(c); err != nil {
				return err
			}
			if _, err := experiments.AblationSchedule(c); err != nil {
				return err
			}
			if _, err := experiments.AblationHistogram(c); err != nil {
				return err
			}
			if _, err := experiments.AblationReplacement(c); err != nil {
				return err
			}
			if _, err := experiments.AblationReadahead(c); err != nil {
				return err
			}
			_, err := experiments.AblationSeekRatio(c)
			return err
		}},
	}

	ran := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		start := time.Now()
		fmt.Printf("== %s (scale %g) ==\n", r.name, *scale)
		if err := r.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Printf("-- %s done in %v --\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
