// Command bench is the repository's end-to-end join benchmark: five
// seed-derived workloads, each measured as a whole join (set-up → matrix →
// cluster → schedule → fetch → compare → emit) from outside the program, plus
// a separate traced pass that attributes the wall time to layers. See
// README.md in this directory for the workloads, the metrics and how they
// are expected to interact.
//
//	go run ./bench -seed 1                      # every workload, both passes
//	go run ./bench -seed 1 -workload dna_edit   # one workload, end-to-end pass
//	go run ./bench -seed 1 -agree               # the end-to-end set twice, compared
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; that is the form BENCHMARK.json's
// command is run in.
package main

import (
	"flag"
	"fmt"
	"os"
)

// config is one workload run's parameters.
type config struct {
	workload string
	seed     int64
	// seconds scales the fixed iteration counts: the tables in workloads.go
	// are sized for tableSeconds of timed work on the reference host.
	seconds int
	trace   bool
	// shrink divides every dataset cardinality (1 at full scale, 16 at
	// -scale tiny) and caps iteration counts at 2 when > 1.
	shrink int
	outDir string
}

// tableSeconds is the -seconds value the iteration tables are written for; it
// is also BENCHMARK.json's run_seconds.
const tableSeconds = 12

// iters scales a table count by the requested run length. Counts, not
// durations, bound each phase so exact counters and allocation totals repeat.
func (c config) iters(n int) int {
	n = (n*c.seconds + tableSeconds/2) / tableSeconds
	if n < 2 {
		n = 2
	}
	return c.reps(n)
}

// reps is a repetition count that does not scale with -seconds: n at full
// scale, 2 at -scale tiny.
func (c config) reps(n int) int {
	if c.shrink > 1 {
		return 2
	}
	return n
}

func main() {
	var (
		cfg   config
		trace int
		scale string
		agree bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "run one workload and print its result as a final JSON line (default: all, both passes)")
	flag.Int64Var(&cfg.seed, "seed", 1, "the only source of randomness: data sample, planted matches, oracle sample, request schedule")
	flag.IntVar(&cfg.seconds, "seconds", tableSeconds, "timed length of one run; scales the fixed iteration counts")
	flag.IntVar(&trace, "trace", 0, "0: untraced end-to-end pass; 1: traced per-layer pass")
	flag.StringVar(&scale, "scale", "full", "full or tiny (datasets / 16, 2 iterations; for the smoke test)")
	flag.BoolVar(&agree, "agree", false, "run the end-to-end set twice and compare against the bounds")
	flag.StringVar(&cfg.outDir, "out", "bench/out", "directory for traces, the file store and result.json")
	flag.Parse()

	cfg.trace = trace != 0
	switch scale {
	case "full":
		cfg.shrink = 1
	case "tiny":
		cfg.shrink = 16
	default:
		fatalf("unknown -scale %q", scale)
	}
	if cfg.seconds < 1 {
		fatalf("-seconds must be at least 1")
	}

	var err error
	switch {
	case agree:
		err = runAgree(cfg)
	case cfg.workload == "":
		err = runAll(cfg)
	default:
		var r *result
		if r, err = runWorkload(cfg); err == nil {
			r.print(os.Stdout, cfg.trace)
			if !r.correct() {
				err = fmt.Errorf("%s: %d of %d checks failed", cfg.workload, r.failed, r.attempted)
			}
		}
	}
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// runWorkload dispatches one workload's pass and stamps the process-wide
// figures every workload shares.
func runWorkload(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	r := newResult(cfg.workload)
	r.spans.on = cfg.trace
	var err error
	if cfg.workload == serveMix {
		err = runServe(cfg, r)
	} else if spec := librarySpec(cfg.workload); spec != nil {
		err = runLibrary(cfg, spec, r)
	} else {
		err = fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		r.set("harness.failed_frac", float64(r.failed)/float64(r.attempted))
		err = r.spans.write(cfg.outDir, cfg.workload)
	}
	return r, err
}
