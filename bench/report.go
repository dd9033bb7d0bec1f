package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// metricDef names one reported metric. The two tables below are the single
// source for the printed report, the final JSON line and BENCHMARK.json
// (TestBenchmarkJSONMatchesRegistry keeps the file in step).
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end metric
	// may worsen before a change counts as a regression (0 for per-layer
	// metrics, which are not gated).
	bound float64
}

// endToEnd is what a caller of the system sees. Every workload reports every
// one of them; README.md gives the per-workload definitions, and why every
// bound is the contract's widest: on the reference host whole-run medians of
// one seed differ by up to a tenth between processes.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"join_cold_s", "s", "lower", 0.25},
	{"join_warm_s", "s", "lower", 0.25},
	{"alloc_mb_per_join", "MB", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"modeled_io_s", "s", "lower", 0.25},
	{"req_p50_s", "s", "lower", 0.25},
	{"req_p90_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
}

// perLayer is the ledger taken from outside in the traced pass, grouped by
// module. A metric that does not apply to a workload (kernel.* on strings,
// store.* without a store, serve.* on library workloads, and the reverse)
// reads 0.
var perLayer = []metricDef{
	{name: "dataset.gen_s", unit: "s", better: "lower"},
	{name: "index.build_s", unit: "s", better: "lower"},

	{name: "predmat.build_s", unit: "s", better: "lower"},
	{name: "predmat.marked", unit: "count", better: "lower"},
	{name: "predmat.density", unit: "ratio", better: "lower"},
	{name: "predmat.useful_mark_frac", unit: "ratio", better: "higher"},

	{name: "cluster.build_s", unit: "s", better: "lower"},
	{name: "cluster.count", unit: "count", better: "lower"},
	{name: "cluster.max_pages", unit: "count", better: "lower"},
	{name: "cluster.entries_per_cluster", unit: "count", better: "higher"},

	{name: "sched.graph_s", unit: "s", better: "lower"},
	{name: "sched.order_s", unit: "s", better: "lower"},
	{name: "sched.savings_pages", unit: "count", better: "higher"},
	{name: "sched.savings_frac", unit: "ratio", better: "higher"},
	{name: "plan.explain_s", unit: "s", better: "lower"},

	{name: "shard.cut_s", unit: "s", better: "lower"},
	{name: "shard.cut_lost_pages", unit: "count", better: "lower"},
	{name: "shard.join_s", unit: "s", better: "lower"},
	{name: "shard.speedup", unit: "ratio", better: "higher"},

	{name: "join.exec_s", unit: "s", better: "lower"},
	{name: "join.exec_p1_s", unit: "s", better: "lower"},
	{name: "join.par_speedup", unit: "ratio", better: "higher"},
	{name: "join.emit_s", unit: "s", better: "lower"},
	{name: "join.emit_pairs_per_s", unit: "1/s", better: "higher"},
	{name: "join.batch_build_s", unit: "s", better: "lower"},
	{name: "join.batch_cells", unit: "count", better: "higher"},
	{name: "join.batch_rows", unit: "count", better: "lower"},
	{name: "join.queue_highwater", unit: "count", better: "lower"},
	{name: "join.comparisons", unit: "count", better: "lower"},
	{name: "join.results", unit: "count", better: "higher"},
	{name: "join.residual_s", unit: "s", better: "lower"},

	{name: "kernel.block_s", unit: "s", better: "lower"},
	{name: "kernel.cmp_per_s", unit: "1/s", better: "higher"},

	{name: "seqdist.pairs_s", unit: "s", better: "lower"},
	{name: "seqdist.cmp_per_s", unit: "1/s", better: "higher"},
	{name: "seqdist.filter_pass_frac", unit: "ratio", better: "lower"},

	{name: "buffer.hits", unit: "count", better: "higher"},
	{name: "buffer.misses", unit: "count", better: "lower"},
	{name: "buffer.hit_ratio", unit: "ratio", better: "higher"},
	{name: "buffer.evictions", unit: "count", better: "lower"},
	{name: "buffer.prefetched_pages", unit: "count", better: "higher"},

	{name: "disk.page_reads", unit: "count", better: "lower"},
	{name: "disk.seeks", unit: "count", better: "lower"},
	{name: "disk.modeled_wall_s", unit: "s", better: "lower"},
	{name: "disk.modeled_serial_s", unit: "s", better: "lower"},
	{name: "disk.overlap_io_s", unit: "s", better: "higher"},
	{name: "disk.lemma4_mismatch", unit: "count", better: "lower"},
	{name: "disk.lemma4_excess_reads", unit: "count", better: "lower"},

	{name: "store.attach_s", unit: "s", better: "lower"},
	{name: "store.bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "store.measured_io_s", unit: "s", better: "lower"},
	{name: "store.measured_reads", unit: "count", better: "lower"},
	{name: "store.us_per_read", unit: "us", better: "lower"},
	{name: "store.wall_vs_sim", unit: "ratio", better: "lower"},
	{name: "store.cold_join_s", unit: "s", better: "lower"},

	{name: "metrics.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "metrics.phase_sum_frac", unit: "ratio", better: "higher"},

	{name: "serve.plan_hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.shared_hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.queue_highwater", unit: "count", better: "lower"},
	{name: "serve.frames_highwater", unit: "count", better: "lower"},
	{name: "serve.rejected", unit: "count", better: "lower"},
	{name: "serve.join_p50_s", unit: "s", better: "lower"},
	{name: "serve.explain_p50_s", unit: "s", better: "lower"},
	{name: "serve.solo_join_s", unit: "s", better: "lower"},
	{name: "serve.contention_ratio", unit: "ratio", better: "lower"},

	{name: "trace.ledger_gap_frac", unit: "ratio", better: "lower"},
	{name: "trace.replica_mismatch", unit: "count", better: "lower"},
	{name: "trace.pass_overhead_frac", unit: "ratio", better: "lower"},
	{name: "harness.failed_frac", unit: "ratio", better: "lower"},
}

// exactCounters are the per-layer metrics that must repeat exactly between
// two runs of one seed (single caller, no timers; see README.md).
var exactCounters = []string{
	"predmat.marked", "predmat.density", "predmat.useful_mark_frac",
	"cluster.count", "cluster.max_pages", "cluster.entries_per_cluster",
	"sched.savings_pages", "sched.savings_frac", "shard.cut_lost_pages",
	"join.comparisons", "join.results", "join.batch_cells", "join.batch_rows",
	"buffer.hits", "buffer.misses", "buffer.hit_ratio", "buffer.evictions",
	"disk.page_reads", "disk.seeks", "disk.modeled_serial_s", "disk.lemma4_mismatch", "disk.lemma4_excess_reads",
	"seqdist.filter_pass_frac", "trace.replica_mismatch",
}

// result accumulates one workload pass: metric values, the timing summaries
// behind them, and the check ledger that becomes attempted/failed.
type result struct {
	workload  string
	values    map[string]float64
	summaries map[string]summary
	mu        sync.Mutex // check is called from serve_mix's two clients
	attempted int
	failed    int
	failures  []string
	spans     *spanLog
}

func newResult(workload string) *result {
	return &result{
		workload:  workload,
		values:    make(map[string]float64),
		summaries: make(map[string]summary),
		spans:     &spanLog{workload: workload},
	}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setTiming records a timing metric as the median of its samples and keeps
// the quartiles and sample count for the printed report.
func (r *result) setTiming(name string, samples []float64) {
	s := summarize(samples)
	r.values[name] = s.p50
	r.summaries[name] = s
}

// check counts one verified operation; a false ok is a failure the command
// exits non-zero on.
func (r *result) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// print writes every metric of the pass by name with its unit, then the
// contract's one-line JSON summary.
func (r *result) print(w io.Writer, traced bool) {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]jsonMetric)}

	for _, d := range defsFor(traced) {
		v := r.values[d.name]
		out.Metrics[d.name] = jsonMetric{v, d.unit}
		fmt.Fprintf(w, "%-14s %-30s %14.6g %-6s", r.workload, d.name, v, d.unit)
		if s, ok := r.summaries[d.name]; ok {
			fmt.Fprintf(w, " n=%d p25=%.6g p75=%.6g p%d=%.6g", s.n, s.p25, s.p75, s.hiQ, s.hi)
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "%-14s FAILED %s\n", r.workload, f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // a map of finite floats and strings; NaN would be a harness bug
	}
	fmt.Fprintf(w, "%s\n", line)
}
