// Package lint implements pmlint, the project-specific static-analysis
// suite. It enforces the two invariants the compiler cannot see but the
// paper's measurements depend on: every page read is charged (no I/O
// accounting bypass around internal/buffer, no dropped errors from the
// disk/buffer APIs), and runs are deterministic (no map-order effects, no
// goroutines outside the worker pool).
//
// The suite is stdlib-only: one `go list -deps -export -json` call names the
// packages and their build-constrained files, module packages are parsed
// with go/parser and type-checked with go/types, and standard-library
// imports are read from the compiler's export data, so pmlint runs anywhere
// the go toolchain is installed with no external modules.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	Path  string // import path, e.g. "pmjoin/internal/join"
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the part of one `go list -json` package object the
// loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string // non-test files that satisfy the build constraints
	Export     string   // the compiler's export data
	Standard   bool
	DepOnly    bool // listed only as a dependency of the patterns
}

// goList runs `go list -deps -export -json` over patterns in dir and returns
// the packages in the order it prints them: every package after its
// dependencies.
func goList(dir string, patterns ...string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter imports the listed packages from their export data.
func exportImporter(fset *token.FileSet, pkgs []listedPackage) types.Importer {
	export := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		export[p.ImportPath] = p.Export
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := export[path]
		if file == "" {
			return nil, fmt.Errorf("lint: no export data for %s", path)
		}
		return os.Open(file)
	})
}

// LoadModule parses and type-checks the non-test packages that the go
// command matches for patterns, run in dir, together with the module
// packages they import. It returns the matched ones, dependencies first.
// Test files are excluded by design: the analyzers enforce invariants on
// production code, and tests intentionally violate several of them (pinning
// without unpinning to test eviction, for example).
func LoadModule(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std := exportImporter(fset, listed)
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	var pkgs []*Package
	for _, lp := range listed {
		if lp.Standard {
			continue
		}
		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = tpkg
		if !lp.DepOnly {
			pkgs = append(pkgs, &Package{Path: lp.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info})
		}
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("lint: no packages match %v", patterns)
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
