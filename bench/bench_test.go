package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"pmjoin/internal/seqdist"
)

func tinyConfig(t *testing.T, workload string, traced bool) config {
	return config{workload: workload, seed: 1, seconds: tableSeconds, trace: traced, shrink: 16, outDir: t.TempDir()}
}

// runTiny runs one pass in process and checks its printed form: every metric
// of the pass by its registered name and unit, then a parsable final line.
func runTiny(t *testing.T, workload string, traced bool) *result {
	t.Helper()
	r, err := runWorkload(tinyConfig(t, workload, traced))
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !r.correct() {
		t.Fatalf("%s: %d of %d checks failed: %v", workload, r.failed, r.attempted, r.failures)
	}

	var out bytes.Buffer
	r.print(&out, traced)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var pr passResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &pr); err != nil {
		t.Fatalf("%s: final line does not parse: %v", workload, err)
	}
	if !pr.Correct || pr.Failed != 0 || pr.Attempted < 1 {
		t.Errorf("%s: final line reports correct=%v attempted=%d failed=%d", workload, pr.Correct, pr.Attempted, pr.Failed)
	}
	defs := defsFor(traced)
	if len(pr.Metrics) != len(defs) {
		t.Errorf("%s: final line has %d metrics, registry has %d", workload, len(pr.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := pr.Metrics[d.name]
		if !ok || m.Unit != d.unit || d.unit == "" {
			t.Errorf("%s: metric %s: present=%v unit=%q, want unit %q", workload, d.name, ok, m.Unit, d.unit)
		}
	}
	return r
}

// TestSmoke runs every workload at -scale tiny: the end-to-end pass once and
// the traced pass twice, whose exact counters must agree.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			e2e := runTiny(t, w, false)
			for _, d := range endToEnd {
				if e2e.values[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v; gated metrics are never 0", d.name, e2e.values[d.name])
				}
			}

			first, second := runTiny(t, w, true), runTiny(t, w, true)
			for _, name := range exactCounters {
				if first.values[name] != second.values[name] {
					t.Errorf("exact counter %s differs between two runs of one seed: %v vs %v",
						name, first.values[name], second.values[name])
				}
			}
			if first.values["harness.failed_frac"] != 0 || first.values["trace.replica_mismatch"] != 0 {
				t.Errorf("failed_frac %v, replica_mismatch %v; want 0",
					first.values["harness.failed_frac"], first.values["trace.replica_mismatch"])
			}
			if spec := librarySpec(w); spec != nil {
				if got := first.values["cluster.max_pages"]; got < 1 || got > float64(spec.opt.BufferPages) {
					t.Errorf("cluster.max_pages = %v, want 1..%d (Lemma 2)", got, spec.opt.BufferPages)
				}
				if first.values["join.comparisons"] == 0 || first.values["predmat.marked"] == 0 {
					t.Errorf("traced pass saw no work: %v comparisons over %v marked cells",
						first.values["join.comparisons"], first.values["predmat.marked"])
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json, which the driver
// reads, in step with the tables the harness prints from.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonDef struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonDef `json:"end_to_end"`
		PerLayer   []jsonDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != tableSeconds {
		t.Errorf("run_seconds = %d, iteration tables are sized for %d", file.RunSeconds, tableSeconds)
	}

	whys := map[string]string{serveMix: serveWhy}
	for _, s := range librarySpecs {
		whys[s.name] = s.why
	}
	names := workloadNames()
	if len(file.Workloads) != len(names) {
		t.Fatalf("%d workloads in file, %d in harness", len(file.Workloads), len(names))
	}
	for i, w := range file.Workloads {
		if w.Name != names[i] || w.Why != whys[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %d: file has %q (why %d chars), harness has %q", i, w.Name, len(w.Why), names[i])
		}
	}

	compare := func(kind string, got []jsonDef, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in file, %d in registry", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: file has %+v, registry has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s[%d] %s: bound in file does not match registry's %v", kind, i, g.Name, w.bound)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd, true)
	compare("per_layer", file.PerLayer, perLayer, false)
}

// TestEditBandAgainstFullDP pins the oracle's own banded scan to the full
// dynamic program: it may never rule out a pair within k edits.
func TestEditBandAgainstFullDP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	band := newEditBand(64)
	for trial := 0; trial < 2000; trial++ {
		a := make([]byte, 40+rng.Intn(24))
		for i := range a {
			a[i] = "ACGT"[rng.Intn(4)]
		}
		b := append([]byte(nil), a...)
		for e := rng.Intn(9); e > 0 && len(b) > 30; e-- {
			switch p := rng.Intn(len(b)); rng.Intn(3) {
			case 0:
				b[p] = "ACGT"[rng.Intn(4)]
			case 1:
				b = append(b[:p], b[p+1:]...)
			default:
				if len(b) < 64 {
					b = append(b[:p+1], b[p:]...)
				}
			}
		}
		for k := 0; k <= 5; k++ {
			want := seqdist.EditDistance(a, b) <= k
			if got := band.within(a, b, k); got != want {
				t.Fatalf("within(%s, %s, %d) = %v, full DP says %v", a, b, k, got, want)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantileOf(xs, 0.90); got != 4.6 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if s := summarize(make([]float64, 300)); s.hiQ != 95 {
		t.Errorf("300 samples report p%d, want p95 (ten samples beyond it)", s.hiQ)
	}
	if s := summarize(make([]float64, 24)); s.hiQ != 75 {
		t.Errorf("24 samples report p%d, want p75", s.hiQ)
	}
}
