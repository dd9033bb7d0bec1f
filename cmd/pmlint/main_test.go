package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// capture runs run() with stdout/stderr redirected to temp files and
// returns the exit code and both outputs.
func capture(t *testing.T, args []string) (code int, stdout, stderr string) {
	t.Helper()
	outF, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	code = run(args, outF, errF)
	read := func(f *os.File) string {
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	return code, read(outF), read(errF)
}

// Regression: with several unknown rules the error used to report exactly
// one of them, picked by map iteration order — a different one per run.
// All unknown rules must be listed, sorted.
func TestUnknownRulesReportedSorted(t *testing.T) {
	for i := 0; i < 5; i++ {
		code, _, stderr := capture(t, []string{"-rules", "zzz,aaa,mmm"})
		if code != 2 {
			t.Fatalf("exit code %d, want 2", code)
		}
		if !strings.Contains(stderr, "unknown rule(s): aaa, mmm, zzz") {
			t.Fatalf("stderr %q does not list the unknown rules sorted", stderr)
		}
	}
}

func TestListNamesEveryRule(t *testing.T) {
	code, stdout, _ := capture(t, []string{"-list"})
	if code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := []string{"bufferbypass", "floateq", "droppederr", "rawgo", "slowdist", "maporder", "lintunused"}
	if !slices.Equal(got, want) {
		t.Errorf("-list names %v, want %v", got, want)
	}
}

func TestJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	code, stdout, stderr := capture(t, []string{"-json", "-stats", "./..."})
	if code != 0 {
		t.Fatalf("exit code %d, want 0 (stderr: %s)", code, stderr)
	}
	var report jsonReport
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("stdout is not the JSON document: %v", err)
	}
	if len(report.Findings) != 0 {
		t.Errorf("module should be clean, got findings: %v", report.Findings)
	}
	if report.Stats.Rules == 0 || report.Stats.Packages == 0 {
		t.Errorf("stats not populated: %+v", report.Stats)
	}
	if _, ok := report.Stats.PerRule["maporder"]; !ok {
		t.Errorf("perRule missing maporder: %v", report.Stats.PerRule)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("-stats summary missing from stderr: %q", stderr)
	}
}
