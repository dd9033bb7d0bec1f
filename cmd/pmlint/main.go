// Command pmlint runs the project's static-analysis suite (internal/lint)
// over the module and reports violations of the buffer/I-O/determinism
// invariants the paper's measurements depend on.
//
// Usage:
//
//	pmlint [-rules bufferbypass,maporder] [-list] [-json] [-github] [-stats] [packages]
//
// Package patterns go to `go list` unchanged, so they mean what they mean to
// the go command: "./..." (default) analyzes the whole module,
// "./internal/..." a subtree, "./internal/join" a single package. A pattern
// that matches no package is a load error.
//
// -json replaces the line-oriented output with a single JSON document
// (findings plus run stats) for machine consumers; CI uploads it as an
// artifact. -github additionally emits GitHub Actions "::error
// file=...,line=..." workflow commands so findings surface as inline PR
// annotations. -stats prints a one-line rules/findings/wall-time summary to
// stderr, which verify.sh surfaces in its output.
//
// Exit codes: 0 no findings, 1 findings reported, 2 load or usage error.
// That contract makes `go run ./cmd/pmlint ./...` a CI gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pmjoin/internal/lint"
)

// jsonFinding is one diagnostic in -json output, with a cwd-relative file
// path so the document is stable across checkouts.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// jsonReport is the -json document: the findings plus enough run stats for
// CI to chart the gate's cost over time.
type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
	Stats    struct {
		Packages  int            `json:"packages"`
		Rules     int            `json:"rules"`
		Findings  int            `json:"findings"`
		PerRule   map[string]int `json:"perRule"`
		LoadMs    int64          `json:"loadMs"`
		AnalyzeMs int64          `json:"analyzeMs"`
	} `json:"stats"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("pmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "comma-separated rule ids to run (default: all)")
	list := fs.Bool("list", false, "list the available rules and exit")
	jsonOut := fs.Bool("json", false, "emit findings and run stats as a JSON document on stdout")
	github := fs.Bool("github", false, "also emit GitHub Actions ::error annotations for each finding")
	stats := fs.Bool("stats", false, "print a rules/findings/wall-time summary to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *rules != "" {
		want := map[string]bool{}
		for _, r := range strings.Split(*rules, ",") {
			want[strings.TrimSpace(r)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		if len(want) > 0 {
			unknown := make([]string, 0, len(want))
			for r := range want {
				unknown = append(unknown, r)
			}
			sort.Strings(unknown)
			fmt.Fprintf(stderr, "pmlint: unknown rule(s): %s\n", strings.Join(unknown, ", "))
			return 2
		}
		analyzers = sel
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "pmlint: %v\n", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loadStart := time.Now()
	pkgs, err := lint.LoadModule(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "pmlint: %v\n", err)
		return 2
	}
	loadDur := time.Since(loadStart)

	analyzeStart := time.Now()
	diags := lint.Run(pkgs, analyzers)
	analyzeDur := time.Since(analyzeStart)

	// Findings with cwd-relative paths, shared by every output mode.
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		findings = append(findings, jsonFinding{
			File: file, Line: d.Pos.Line, Col: d.Pos.Column,
			Rule: d.Rule, Message: d.Message,
		})
	}

	if *jsonOut {
		var report jsonReport
		report.Findings = findings
		report.Stats.Packages = len(pkgs)
		report.Stats.Rules = len(analyzers)
		report.Stats.Findings = len(findings)
		report.Stats.PerRule = make(map[string]int, len(analyzers))
		for _, a := range analyzers {
			report.Stats.PerRule[a.Name] = 0
		}
		for _, f := range findings {
			report.Stats.PerRule[f.Rule]++
		}
		report.Stats.LoadMs = loadDur.Milliseconds()
		report.Stats.AnalyzeMs = analyzeDur.Milliseconds()
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "pmlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Rule, f.Message)
		}
	}
	if *github {
		// Workflow commands surface findings as inline annotations on the
		// PR diff. The message part follows the double colon; properties
		// must not contain commas or newlines, and the messages here are
		// single-line by construction.
		for _, f := range findings {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d::pmlint %s: %s\n",
				f.File, f.Line, f.Col, f.Rule, f.Message)
		}
	}
	if *stats {
		fmt.Fprintf(stderr, "pmlint: %d rules over %d packages, %d finding(s), load %.2fs + analyze %.2fs\n",
			len(analyzers), len(pkgs), len(findings), loadDur.Seconds(), analyzeDur.Seconds())
	}
	if len(diags) > 0 {
		if !*stats {
			fmt.Fprintf(stderr, "pmlint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}
