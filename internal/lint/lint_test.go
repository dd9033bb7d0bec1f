package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// Stub declarations of the guarded packages. Fixtures are type-checked
// against these under the real import paths, so the analyzers' path-based
// matching works exactly as it does on the real tree.
const stubDisk = `package disk

type FileID int

type PageAddr struct {
	File FileID
	Page int
}

type Page struct {
	Addr PageAddr
	IDs  []int
}

type Disk struct{}

func (d *Disk) NumPages(f FileID) int                     { return 0 }

type Session struct{}

func (s *Session) Read(a PageAddr) (*Page, error)      { return nil, nil }
func (s *Session) Write(a PageAddr, p Page) error      { return nil }
func (s *Session) Peek(a PageAddr) (*Page, error)      { return nil, nil }
func (s *Session) NumPages(f FileID) int               { return 0 }
`

const stubBuffer = `package buffer

import "pmjoin/internal/disk"

type Source interface {
	Read(addr disk.PageAddr) (*disk.Page, error)
}

type Pool struct{}

func (p *Pool) Get(a disk.PageAddr) (*disk.Page, error)       { return nil, nil }
func (p *Pool) Unpin(a disk.PageAddr) error                   { return nil }
func (p *Pool) UnpinAll()                                     {}
func (p *Pool) Flush() error                                  { return nil }
`

const stubPredmat = `package predmat

type Entry struct{ R, C int }

type Matrix struct{}

func FromEntries(rows, cols int, marks ...[]Entry) *Matrix { return nil }
`

const stubPool = `package pool

type Pool struct{}

func (p *Pool) Run(task func()) {}

type Group struct{}

func (g *Group) Go(task func()) {}
`

const stubMetrics = `package metrics

type Collector struct{}

func (c *Collector) Event(name string) {}
`

// fixtureStdlib lists the standard-library packages the fixtures import,
// with their export data, once per test process.
var fixtureStdlib = sync.OnceValues(func() ([]listedPackage, error) {
	return goList(".", "fmt", "slices", "sort", "strconv")
})

// checkFixture type-checks the stub packages plus one fixture source under
// the given import path and returns the fixture as a *Package ready for
// analysis.
func checkFixture(t *testing.T, path, src string) *Package {
	t.Helper()
	return checkFixtureFile(t, path, "fixture.go", src)
}

// checkFixtureFile is checkFixture with an explicit fixture filename, for
// rules whose matching depends on the file (rawgo exempts workerpool.go).
func checkFixtureFile(t *testing.T, path, filename, src string) *Package {
	t.Helper()
	std, err := fixtureStdlib()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	stdImp := exportImporter(fset, std)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(p string) (*types.Package, error) {
		if pkg, ok := checked[p]; ok {
			return pkg, nil
		}
		return stdImp.Import(p)
	})
	check := func(path, filename, src string) *Package {
		f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", filename, err)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		checked[path] = tpkg
		return &Package{Path: path, Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
	}
	check(diskPkgPath, "disk.go", stubDisk)
	check(bufferPkgPath, "buffer.go", stubBuffer)
	check("pmjoin/internal/predmat", "predmat.go", stubPredmat)
	check(poolPkgPath, "pool.go", stubPool)
	check(metricsPkgPath, "metrics.go", stubMetrics)
	return check(path, filename, src)
}

// analyzersNamed returns the named analyzers of the suite, in its order.
func analyzersNamed(t *testing.T, names ...string) []*Analyzer {
	t.Helper()
	var out []*Analyzer
	for _, a := range Analyzers() {
		if slices.Contains(names, a.Name) {
			out = append(out, a)
		}
	}
	if len(out) != len(names) {
		t.Fatalf("analyzers %v: found only %d", names, len(out))
	}
	return out
}

// runOne runs a single analyzer (with suppression applied) over a fixture.
func runOne(t *testing.T, name, path, src string) []Diagnostic {
	t.Helper()
	return Run([]*Package{checkFixture(t, path, src)}, analyzersNamed(t, name))
}

// expectDiags asserts the diagnostics hit exactly the given lines (in order)
// under the given rule.
func expectDiags(t *testing.T, diags []Diagnostic, rule string, lines []int) {
	t.Helper()
	if len(diags) != len(lines) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(lines), formatDiags(diags))
	}
	for i, d := range diags {
		if d.Rule != rule {
			t.Errorf("diag %d: rule %q, want %q", i, d.Rule, rule)
		}
		if d.Pos.Line != lines[i] {
			t.Errorf("diag %d: line %d, want %d (%s)", i, d.Pos.Line, lines[i], d.Message)
		}
	}
}

func formatDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

func TestBufferBypass(t *testing.T) {
	const fixturePath = "pmjoin/internal/fixture"
	cases := []struct {
		name  string
		src   string
		lines []int
	}{
		{
			name: "pool-mediated access is clean",
			src: `package fixture

import (
	"pmjoin/internal/buffer"
	"pmjoin/internal/disk"
)

func ok(p *buffer.Pool, a disk.PageAddr) error {
	_, err := p.Get(a)
	return err
}
`,
		},
		{
			name: "uncharged metadata methods are clean",
			src: `package fixture

import "pmjoin/internal/disk"

func ok(d *disk.Disk, f disk.FileID) int {
	return d.NumPages(f)
}
`,
		},
		{
			name: "session page I/O is flagged like disk page I/O",
			src: `package fixture

import "pmjoin/internal/disk"

func bad(s *disk.Session, a disk.PageAddr) error {
	if _, err := s.Read(a); err != nil {
		return err
	}
	if _, err := s.Peek(a); err != nil {
		return err
	}
	return s.Write(a, disk.Page{})
}
`,
			lines: []int{6, 9, 12},
		},
		{
			name: "session metadata methods are clean",
			src: `package fixture

import "pmjoin/internal/disk"

func ok(s *disk.Session, f disk.FileID) int {
	return s.NumPages(f)
}
`,
		},
		{
			// A call through the pool's Source interface resolves to the
			// interface method, not disk.Session; the rule must
			// still see it, or engines could hold the pool's source and issue
			// their own readahead around Get and PinSet.
			name: "read through buffer.Source is flagged",
			src: `package fixture

import (
	"pmjoin/internal/buffer"
	"pmjoin/internal/disk"
)

func bad(src buffer.Source, a disk.PageAddr) error {
	_, err := src.Read(a)
	return err
}
`,
			lines: []int{9},
		},
		{
			// A fixture-local Read is not pool-source traffic: only the
			// guarded interface (and the concrete session type) carry the
			// simulator's I/O charges.
			name: "read on an unrelated local type is clean",
			src: `package fixture

import "pmjoin/internal/disk"

type fake struct{}

func (fake) Read(a disk.PageAddr) (*disk.Page, error) { return nil, nil }

func ok(f fake, a disk.PageAddr) error {
	_, err := f.Read(a)
	return err
}
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectDiags(t, runOne(t, "bufferbypass", fixturePath, tc.src), "bufferbypass", tc.lines)
		})
	}
}

func TestRawGo(t *testing.T) {
	const goSrc = `package fixture

func spawn(task func()) {
	go task()
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
}
`
	t.Run("bare go statements are flagged", func(t *testing.T) {
		expectDiags(t, runOne(t, "rawgo", "pmjoin/internal/fixture", goSrc), "rawgo", []int{4, 6})
	})
	t.Run("pool.go in internal/pool is exempt", func(t *testing.T) {
		src := strings.Replace(goSrc, "package fixture", "package pool", 1)
		pkg := checkFixtureFile(t, poolPkgPath, "pool.go", src)
		expectDiags(t, Run([]*Package{pkg}, analyzersNamed(t, "rawgo")), "rawgo", nil)
	})
	t.Run("other files in internal/join are not exempt", func(t *testing.T) {
		src := strings.Replace(goSrc, "package fixture", "package join", 1)
		pkg := checkFixtureFile(t, "pmjoin/internal/join", "workerpool.go", src)
		expectDiags(t, Run([]*Package{pkg}, analyzersNamed(t, "rawgo")), "rawgo", []int{4, 6})
	})
	t.Run("other files in internal/shard are not exempt", func(t *testing.T) {
		src := strings.Replace(goSrc, "package fixture", "package shard", 1)
		pkg := checkFixtureFile(t, "pmjoin/internal/shard", "run.go", src)
		expectDiags(t, Run([]*Package{pkg}, analyzersNamed(t, "rawgo")), "rawgo", []int{4, 6})
	})
	t.Run("suppressed spawn is clean", func(t *testing.T) {
		src := `package fixture

func spawn(done chan struct{}) {
	//lint:ignore rawgo test helper joins via the channel
	go func() { close(done) }()
}
`
		expectDiags(t, runOne(t, "rawgo", "pmjoin/internal/fixture", src), "rawgo", nil)
	})
}

func TestDroppedErr(t *testing.T) {
	const fixturePath = "pmjoin/internal/fixture"
	cases := []struct {
		name  string
		src   string
		lines []int
	}{
		{
			name: "expression statement discards the error",
			src: `package fixture

import (
	"pmjoin/internal/buffer"
	"pmjoin/internal/disk"
)

func bad(p *buffer.Pool, a disk.PageAddr) {
	p.Unpin(a)
}
`,
			lines: []int{9},
		},
		{
			name: "blank identifier in the error slot",
			src: `package fixture

import "pmjoin/internal/disk"

func bad(s *disk.Session, a disk.PageAddr) any {
	pg, _ := s.Read(a)
	return pg
}
`,
			lines: []int{6},
		},
		{
			name: "deferred unpin hides the error",
			src: `package fixture

import (
	"pmjoin/internal/buffer"
	"pmjoin/internal/disk"
)

func bad(p *buffer.Pool, a disk.PageAddr) {
	defer p.Unpin(a)
}
`,
			lines: []int{9},
		},
		{
			name: "handled errors are clean",
			src: `package fixture

import (
	"pmjoin/internal/buffer"
	"pmjoin/internal/disk"
)

func ok(p *buffer.Pool, a disk.PageAddr) error {
	if err := p.Unpin(a); err != nil {
		return err
	}
	_, err := p.Get(a)
	return err
}
`,
		},
		{
			name: "void disk/buffer calls are clean",
			src: `package fixture

import "pmjoin/internal/buffer"

func ok(p *buffer.Pool) {
	p.UnpinAll()
}
`,
		},
		{
			name: "discarded Flush error is flagged",
			src: `package fixture

import "pmjoin/internal/buffer"

func bad(p *buffer.Pool) {
	p.Flush()
}
`,
			lines: []int{6},
		},
		{
			name: "non-guarded packages are not policed",
			src: `package fixture

import "strconv"

func ok(s string) {
	strconv.Atoi(s)
}
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectDiags(t, runOne(t, "droppederr", fixturePath, tc.src), "droppederr", tc.lines)
		})
	}
}

func TestSuppression(t *testing.T) {
	const fixturePath = "pmjoin/internal/fixture"
	t.Run("line-above directive silences the finding", func(t *testing.T) {
		src := `package fixture

import "pmjoin/internal/disk"

func bad(s *disk.Session, a disk.PageAddr) error {
	//lint:ignore bufferbypass cost-model scan charged directly
	_, err := s.Read(a)
	return err
}
`
		expectDiags(t, runOne(t, "bufferbypass", fixturePath, src), "bufferbypass", nil)
	})
	t.Run("same-line directive silences the finding", func(t *testing.T) {
		src := `package fixture

import "pmjoin/internal/disk"

func bad(s *disk.Session, a disk.PageAddr) error {
	_, err := s.Read(a) //lint:ignore bufferbypass cost-model scan charged directly
	return err
}
`
		expectDiags(t, runOne(t, "bufferbypass", fixturePath, src), "bufferbypass", nil)
	})
	t.Run("doc-comment directive covers only the line below", func(t *testing.T) {
		src := `package fixture

import "pmjoin/internal/disk"

// bad reads a page directly.
//
//lint:ignore bufferbypass a directive has no declaration scope
func bad(s *disk.Session, a disk.PageAddr) error {
	_, err := s.Read(a)
	return err
}
`
		expectDiags(t, runOne(t, "bufferbypass", fixturePath, src), "bufferbypass", []int{9})
	})
	t.Run("unknown rule name is itself reported", func(t *testing.T) {
		src := `package fixture

import "pmjoin/internal/disk"

func bad(s *disk.Session, a disk.PageAddr) error {
	//lint:ignore nosuchrule,floatq typo of a rule name
	_, err := s.Read(a)
	return err
}
`
		diags := Run([]*Package{checkFixture(t, fixturePath, src)}, Analyzers())
		if len(diags) != 3 {
			t.Fatalf("got %d diagnostics, want 3 (two lintdirective + unsuppressed finding):\n%s",
				len(diags), formatDiags(diags))
		}
		for i, want := range []string{"nosuchrule", "floatq"} {
			if d := diags[i]; d.Rule != "lintdirective" || d.Pos.Line != 6 || !strings.Contains(d.Message, want) {
				t.Errorf("diag %d = %s, want lintdirective on line 6 naming %s", i, d, want)
			}
		}
		if diags[2].Rule != "bufferbypass" {
			t.Errorf("third diag rule %q, want bufferbypass", diags[2].Rule)
		}
	})
	t.Run("directive for another rule does not silence", func(t *testing.T) {
		src := `package fixture

import "pmjoin/internal/disk"

func bad(s *disk.Session, a disk.PageAddr) error {
	//lint:ignore rawgo wrong rule
	_, err := s.Read(a)
	return err
}
`
		expectDiags(t, runOne(t, "bufferbypass", fixturePath, src), "bufferbypass", []int{7})
	})
	t.Run("missing reason is itself reported", func(t *testing.T) {
		src := `package fixture

import "pmjoin/internal/disk"

func bad(s *disk.Session, a disk.PageAddr) error {
	//lint:ignore bufferbypass
	_, err := s.Read(a)
	return err
}
`
		diags := runOne(t, "bufferbypass", fixturePath, src)
		if len(diags) != 2 {
			t.Fatalf("got %d diagnostics, want 2 (lintdirective + unsuppressed finding):\n%s",
				len(diags), formatDiags(diags))
		}
		if diags[0].Rule != "lintdirective" {
			t.Errorf("first diag rule %q, want lintdirective", diags[0].Rule)
		}
		if diags[1].Rule != "bufferbypass" {
			t.Errorf("second diag rule %q, want bufferbypass", diags[1].Rule)
		}
	})
}

// TestLintingDocMatchesAnalyzers holds LINTING.md to the registry: one
// "### `rule`" section per analyzer, none for a rule that is gone.
func TestLintingDocMatchesAnalyzers(t *testing.T) {
	doc, err := os.ReadFile("../../LINTING.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^### `([a-z]+)`$").FindAllStringSubmatch(string(doc), -1) {
		documented = append(documented, m[1])
	}
	var registered []string
	for _, a := range Analyzers() {
		registered = append(registered, a.Name)
	}
	slices.Sort(documented)
	slices.Sort(registered)
	if !slices.Equal(documented, registered) {
		t.Errorf("LINTING.md documents rules %v, Analyzers() registers %v", documented, registered)
	}
}

// TestModuleIsClean is the lint gate as a test: the whole module must load,
// type-check, and produce zero diagnostics. This is the same check CI runs
// via `go run ./cmd/pmlint ./...`.
func TestModuleIsClean(t *testing.T) {
	pkgs, err := LoadModule("../..", "./...")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the loader is missing parts of the module", len(pkgs))
	}
	diags := Run(pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestLoadHonoursBuildConstraints: the loader type-checks the files the go
// command builds for this platform, so a per-architecture pair such as
// sums_amd64.go / sums_noasm.go never double-declares its symbols.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the assembly kernels build on amd64 only")
	}
	pkgs, err := LoadModule(".", "pmjoin/internal/kernel")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	var names []string
	for _, f := range pkgs[0].Files {
		names = append(names, filepath.Base(pkgs[0].Fset.Position(f.Pos()).Filename))
	}
	if !slices.Contains(names, "sums_amd64.go") || slices.Contains(names, "sums_noasm.go") {
		t.Errorf("internal/kernel files %v: want sums_amd64.go and not sums_noasm.go", names)
	}
}

func TestMaporder(t *testing.T) {
	const fixturePath = "pmjoin/internal/fixture"
	cases := []struct {
		name  string
		src   string
		lines []int
	}{
		{
			name: "append without a later sort",
			src: `package fixture

func bad(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
			lines: []int{5},
		},
		{
			name: "sorted-keys idiom is clean",
			src: `package fixture

import "sort"

func ok(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
`,
		},
		{
			name: "sort.Slice also normalizes",
			src: `package fixture

import "sort"

func ok(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
`,
		},
		{
			name: "slices.Sort also normalizes",
			src: `package fixture

import "slices"

func ok(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
`,
		},
		{
			name: "float accumulation is order-dependent",
			src: `package fixture

func bad(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v
	}
	return sum
}
`,
			lines: []int{5},
		},
		{
			name: "integer counters are exact and commutative",
			src: `package fixture

func ok(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
`,
		},
		{
			name: "map-to-map copy is order-insensitive",
			src: `package fixture

func ok(src, dst map[int]int) {
	for k, v := range src {
		dst[k] = v
	}
}
`,
		},
		{
			name: "channel send leaks iteration order",
			src: `package fixture

func bad(m map[int]int, ch chan int) {
	for k := range m {
		ch <- k
	}
}
`,
			lines: []int{4},
		},
		{
			name: "printing leaks iteration order",
			src: `package fixture

import "fmt"

func bad(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`,
			lines: []int{6},
		},
		{
			name: "a mark batch built in map order is an unsorted append",
			src: `package fixture

import "pmjoin/internal/predmat"

func bad(pairs map[int]int) *predmat.Matrix {
	var marks []predmat.Entry
	for i, j := range pairs {
		marks = append(marks, predmat.Entry{R: i, C: j})
	}
	return predmat.FromEntries(8, 8, marks)
}
`,
			lines: []int{7},
		},
		{
			name: "worker-pool submission order must not come from a map",
			src: `package fixture

import "pmjoin/internal/pool"

func bad(p *pool.Pool, g *pool.Group, work map[int]func()) {
	for _, w := range work {
		p.Run(w)
	}
	for _, w := range work {
		g.Go(w)
	}
}
`,
			lines: []int{6, 9},
		},
		{
			name: "trace events must not be emitted in map order",
			src: `package fixture

import "pmjoin/internal/metrics"

func bad(c *metrics.Collector, names map[string]bool) {
	for n := range names {
		c.Event(n)
	}
}
`,
			lines: []int{6},
		},
		{
			name: "range over a slice is always ordered",
			src: `package fixture

func ok(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectDiags(t, runOne(t, "maporder", fixturePath, tc.src), "maporder", tc.lines)
		})
	}
}

func TestLintunused(t *testing.T) {
	const fixturePath = "pmjoin/internal/fixture"

	t.Run("stale directive is reported", func(t *testing.T) {
		src := `package fixture

func clean() int {
	//lint:ignore rawgo was needed before the goroutine moved to the pool
	return 1
}
`
		diags := Run([]*Package{checkFixture(t, fixturePath, src)}, Analyzers())
		expectDiags(t, diags, "lintunused", []int{4})
	})

	t.Run("useful directive is not reported", func(t *testing.T) {
		src := `package fixture

func spawn(done chan struct{}) {
	//lint:ignore rawgo fixture exercises the suppression path
	go func() { close(done) }()
}
`
		diags := Run([]*Package{checkFixture(t, fixturePath, src)}, Analyzers())
		expectDiags(t, diags, "lintunused", nil)
	})

	t.Run("stale all directive needs the full suite", func(t *testing.T) {
		src := `package fixture

func clean() int {
	//lint:ignore all historical
	return 1
}
`
		pkg := checkFixture(t, fixturePath, src)
		diags := Run([]*Package{pkg}, Analyzers())
		expectDiags(t, diags, "lintunused", []int{4})

		// Under a partial run the same directive is not checkable: the
		// finding it suppresses might belong to an analyzer that did not run.
		expectDiags(t, Run([]*Package{pkg}, analyzersNamed(t, "rawgo", "lintunused")), "lintunused", nil)
	})

	t.Run("directive naming a rule outside the run is not checkable", func(t *testing.T) {
		src := `package fixture

func clean() int {
	//lint:ignore bufferbypass metadata read charged by the caller
	return 1
}
`
		pkg := checkFixture(t, fixturePath, src)
		expectDiags(t, Run([]*Package{pkg}, analyzersNamed(t, "rawgo", "lintunused")), "lintunused", nil)
		// With the full suite, bufferbypass ran, found nothing, and the
		// directive is provably stale.
		expectDiags(t, Run([]*Package{pkg}, Analyzers()), "lintunused", []int{4})
	})
}
