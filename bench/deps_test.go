package main

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// dependencyBudget is every non-standard-library package the harness may
// import. Later changes may not edit bench/, so each import freezes a surface
// until the next benchmark issue; the budget is the surfaces the ROADMAP
// keeps (see README.md for the symbols used within each).
var dependencyBudget = map[string]bool{
	"pmjoin":                  true,
	"pmjoin/internal/dataset": true,
	"pmjoin/internal/joinsvc": true,
	// Direct layer calls of the traced pass.
	"pmjoin/internal/rstar":    true,
	"pmjoin/internal/mrsindex": true,
	"pmjoin/internal/predmat":  true,
	"pmjoin/internal/cluster":  true,
	"pmjoin/internal/sched":    true,
	"pmjoin/internal/shard":    true,
	"pmjoin/internal/kernel":   true,
	"pmjoin/internal/seqdist":  true,
	"pmjoin/internal/geom":     true,
}

func TestDependencyBudget(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files found; run from bench/")
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			first, _, _ := strings.Cut(path, "/")
			standard := first != "pmjoin" && !strings.Contains(first, ".")
			if !standard && !dependencyBudget[path] {
				t.Errorf("%s imports %s, which is outside the benchmark's dependency budget", name, path)
			}
		}
	}
}
