// Package lint implements pmlint, the project-specific static-analysis
// suite. It enforces the two invariants the compiler cannot see but the
// paper's measurements depend on: every page read is charged (no I/O
// accounting bypass around internal/buffer, no dropped errors from the
// disk/buffer APIs), and runs are deterministic (no map-order effects, no
// goroutines outside the worker pool).
//
// The suite is stdlib-only: packages are loaded with go/parser and
// type-checked with go/types, using the compiler's source importer for
// standard-library dependencies, so pmlint runs anywhere the go toolchain
// is installed with no external modules.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The source importer type-checks standard-library dependencies from
// source — several seconds of work for the transitive closure this module
// touches — and caches the results, but only inside one importer instance.
// A single process-wide instance makes that price a per-process cost
// instead of a per-LoadModule (and, in the test suite, per-fixture) cost.
// Module files are parsed into the same shared FileSet so every position
// in scope resolves against one fset; token.FileSet is safe for concurrent
// use, and stdlibMu serializes the importer itself, which is not.
var (
	stdlibMu       sync.Mutex
	stdlibFset     = token.NewFileSet()
	stdlibImporter = importer.ForCompiler(stdlibFset, "source", nil)
)

// importStdlib resolves a standard-library import through the shared
// importer. Safe for concurrent use.
func importStdlib(path string) (*types.Package, error) {
	stdlibMu.Lock()
	defer stdlibMu.Unlock()
	return stdlibImporter.Import(path)
}

// Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	Path  string // import path, e.g. "pmjoin/internal/join"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// LoadModule parses and type-checks every non-test package of the module
// rooted at root. Test files are excluded by design: the analyzers enforce
// invariants on production code, and tests intentionally violate several of
// them (pinning without unpinning to test eviction, for example).
func LoadModule(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	fset := stdlibFset
	raw := make(map[string]*rawPkg)
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		files, err := parseDir(fset, dir)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		rp := &rawPkg{path: importPath, dir: dir, files: files, imports: map[string]bool{}}
		for _, f := range files {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == modPath || strings.HasPrefix(p, modPath+"/") {
					rp.imports[p] = true
				}
			}
		}
		raw[importPath] = rp
	}

	order, err := topoSort(raw)
	if err != nil {
		return nil, err
	}

	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return importStdlib(path)
	})

	var pkgs []*Package
	for _, path := range order {
		rp := raw[path]
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		var typeErrs []error
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		tpkg, _ := conf.Check(path, fset, rp.files, info)
		if len(typeErrs) > 0 {
			return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
		}
		checked[path] = tpkg
		pkgs = append(pkgs, &Package{
			Path:  path,
			Dir:   rp.dir,
			Fset:  fset,
			Files: rp.files,
			Types: tpkg,
			Info:  info,
		})
	}
	return pkgs, nil
}

// packageDirs returns every directory under root holding at least one
// non-test .go file, skipping hidden directories, testdata, and vendor.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// parseDir parses the non-test .go files of one directory, in name order for
// deterministic output. Files excluded by build constraints (//go:build tags
// or GOOS/GOARCH filename suffixes) for the host platform are skipped, so
// per-architecture pairs like sums_amd64.go / sums_noasm.go do not
// double-declare symbols in one type-check.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			match, err := build.Default.MatchFile(dir, n)
			if err != nil {
				return nil, err
			}
			if match {
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// rawPkg is a parsed-but-unchecked package.
type rawPkg struct {
	path    string
	dir     string
	files   []*ast.File
	imports map[string]bool // module-internal imports
}

// topoSort orders the package paths so that every package appears after all
// of its module-internal dependencies.
func topoSort(raw map[string]*rawPkg) ([]string, error) {
	paths := make([]string, 0, len(raw))
	for p := range raw {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(raw))
	var order []string
	var visit func(p string) error
	visit = func(p string) error {
		switch state[p] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", p)
		}
		state[p] = visiting
		deps := make([]string, 0, len(raw[p].imports))
		for d := range raw[p].imports {
			deps = append(deps, d)
		}
		sort.Strings(deps)
		for _, d := range deps {
			if _, ok := raw[d]; !ok {
				return fmt.Errorf("lint: %s imports %s, which is not in the module", p, d)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p] = done
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
