package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// passResult is the final JSON line of one workload process.
type passResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runPass re-executes this binary for one workload and pass. Each workload
// gets its own process so its peak RSS and heap growth are its own; the
// child's report is echoed and its final line parsed.
func runPass(cfg config, workload string, traced bool, echo io.Writer) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	scale := "full"
	if cfg.shrink > 1 {
		scale = "tiny"
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace, "-scale", scale, "-out", cfg.outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(echo, l)
	}
	if runErr != nil {
		fmt.Fprintln(echo, last)
		return nil, fmt.Errorf("%s (trace %s): %w", workload, trace, runErr)
	}
	var pr passResult
	if err := json.Unmarshal([]byte(last), &pr); err != nil {
		return nil, fmt.Errorf("%s (trace %s): unparsable result line %q: %w", workload, trace, last, err)
	}
	return &pr, nil
}

// runAll is the whole benchmark: every workload, sequentially, the untraced
// end-to-end pass and then the traced per-layer pass, every metric printed
// by name with its unit, and the run recorded as <out>/result.json.
func runAll(cfg config) error {
	type workloadRecord struct {
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		EndToEnd  map[string]float64 `json:"end_to_end"`
		PerLayer  map[string]float64 `json:"per_layer"`
	}
	record := struct {
		Seed       int64                     `json:"seed"`
		Seconds    int                       `json:"seconds"`
		NProc      int                       `json:"nproc"`
		GOMAXPROCS int                       `json:"gomaxprocs"`
		GoVersion  string                    `json:"go_version"`
		Commit     string                    `json:"commit"`
		Units      map[string]string         `json:"units"`
		Workloads  map[string]workloadRecord `json:"workloads"`
	}{
		Seed: cfg.seed, Seconds: cfg.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit:    headCommit(),
		Units:     make(map[string]string),
		Workloads: make(map[string]workloadRecord),
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		record.Units[d.name] = d.unit
	}

	failed := 0
	for _, w := range workloadNames() {
		rec := workloadRecord{EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
		for _, traced := range []bool{false, true} {
			pr, err := runPass(cfg, w, traced, os.Stdout)
			if err != nil {
				return err
			}
			rec.Attempted += pr.Attempted
			rec.Failed += pr.Failed
			for name, m := range pr.Metrics { // map to map; order-free
				if traced {
					rec.PerLayer[name] = m.Value
				} else {
					rec.EndToEnd[name] = m.Value
				}
			}
		}
		rec.EndToEnd["failed_frac"] = float64(rec.Failed) / float64(rec.Attempted)
		fmt.Printf("%-14s %-30s %14.6g %-6s (%d of %d checks)\n", w, "failed_frac",
			rec.EndToEnd["failed_frac"], "ratio", rec.Failed, rec.Attempted)
		failed += rec.Failed
		record.Workloads[w] = rec
	}

	buf, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "result.json"), append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d checks failed", failed)
	}
	return nil
}

// headCommit names the checked-out commit for the record, or "" outside a git
// work tree (the driver's checkouts are plain directories).
func headCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// runAgree runs the end-to-end set twice and prints, per workload and metric,
// both values, their relative difference and the bound; any difference beyond
// its bound fails the command. It is how a metric earns its place in the
// gated list: one that cannot repeat within its bound is not a gate.
func runAgree(cfg config) error {
	// The two runs of a workload are back to back, so a slow spell of the
	// host tends to cover both sides of a comparison.
	var sets [2]map[string]*passResult
	sets[0], sets[1] = make(map[string]*passResult), make(map[string]*passResult)
	for _, w := range workloadNames() {
		for i := range sets {
			pr, err := runPass(cfg, w, false, io.Discard)
			if err != nil {
				return err
			}
			if !pr.Correct {
				return fmt.Errorf("%s: %d of %d checks failed", w, pr.Failed, pr.Attempted)
			}
			sets[i][w] = pr
		}
	}
	fmt.Printf("%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "rel.diff", "bound")
	beyond := 0
	for _, w := range workloadNames() {
		for _, d := range endToEnd {
			a, b := sets[0][w].Metrics[d.name].Value, sets[1][w].Metrics[d.name].Value
			diff := math.Abs(b-a) / a
			flag := ""
			if diff > d.bound {
				flag = "  BEYOND BOUND"
				beyond++
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w, d.name, a, b, 100*diff, 100*d.bound, flag)
		}
	}
	if beyond > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between two runs of the same code by more than their bound", beyond)
	}
	return nil
}
