package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
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

// chdir moves the test process into dir until the test ends: pmlint resolves
// its patterns against the working directory, as the go command does.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// jsonPackages runs pmlint -json over patterns and returns how many packages
// it analyzed.
func jsonPackages(t *testing.T, patterns ...string) int {
	t.Helper()
	code, stdout, stderr := capture(t, append([]string{"-json"}, patterns...))
	if code != 0 {
		t.Fatalf("%v: exit code %d, want 0 (stderr: %s)", patterns, code, stderr)
	}
	var report jsonReport
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("stdout is not the JSON document: %v", err)
	}
	return report.Stats.Packages
}

// TestPatternsSelectPackages: a package pattern selects what the go command
// selects, one directory or a whole subtree.
func TestPatternsSelectPackages(t *testing.T) {
	chdir(t, "../..")
	if n := jsonPackages(t, "./internal/ego"); n != 1 {
		t.Errorf("./internal/ego: %d packages, want 1", n)
	}
	// Every directory under internal/ with a non-test Go file is a package.
	internal := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		files, err := filepath.Glob(filepath.Join(path, "*.go"))
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				internal++
				break
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := jsonPackages(t, "./internal/..."); n != internal {
		t.Errorf("./internal/...: %d packages, want %d", n, internal)
	}
}

// A pattern that matches no package is a load error, whether the go command
// rejects it (a missing directory) or matches nothing (a directory without
// Go files).
func TestUnmatchedPatternIsLoadError(t *testing.T) {
	chdir(t, "../..")
	for _, tc := range []struct{ pattern, want string }{
		{"./scripts/...", "no packages match [./scripts/...]"},
		{"./nosuch", "nosuch"},
	} {
		code, _, stderr := capture(t, []string{tc.pattern})
		if code != 2 {
			t.Errorf("%s: exit code %d, want 2", tc.pattern, code)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: stderr %q does not say %q", tc.pattern, stderr, tc.want)
		}
	}
}

// A package that does not compile is a load error that names its file.
func TestTypeErrorIsLoadError(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"bad.go": "package bad\n\nvar x int = \"s\"\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	chdir(t, dir)
	code, _, stderr := capture(t, []string{"./..."})
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "bad.go") {
		t.Errorf("stderr %q does not name bad.go", stderr)
	}
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
	want := []string{"bufferbypass", "droppederr", "rawgo", "maporder", "lintunused"}
	if !slices.Equal(got, want) {
		t.Errorf("-list names %v, want %v", got, want)
	}
}

func TestJSONReport(t *testing.T) {
	chdir(t, "../..")
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
