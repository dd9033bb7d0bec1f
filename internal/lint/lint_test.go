package lint

import (
	"go/ast"
	"go/parser"
	"go/types"
	"os"
	"regexp"
	"slices"
	"strings"
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

func (d *Disk) Read(a PageAddr) (*Page, error)            { return nil, nil }
func (d *Disk) Write(a PageAddr, p Page) error            { return nil }
func (d *Disk) Peek(a PageAddr) (*Page, error)            { return nil, nil }
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

const stubGeom = `package geom

type Vector []float64

type MBR struct {
	Min, Max Vector
}

type Norm struct{ P int }

func (n Norm) Dist(a, b Vector) float64 { return 0 }
func (n Norm) MinDist(a, b MBR) float64 { return 0 }
`

const stubPredmat = `package predmat

type Matrix struct{}

func (m *Matrix) Mark(i, j int) {}
`

const stubJoin = `package join

type WorkerPool struct{}

func (p *WorkerPool) Run(tasks []func() any) []any { return nil }
`

const stubMetrics = `package metrics

type Collector struct{}

func (c *Collector) Event(name string) {}
`

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
	// Fixtures share the process-wide fset and stdlib importer (see load.go):
	// the stdlib closure is type-checked once for the whole test run instead
	// of once per fixture, which is what used to dominate this suite's time.
	fset := stdlibFset
	checked := map[string]*types.Package{}
	imp := importerFunc(func(p string) (*types.Package, error) {
		if pkg, ok := checked[p]; ok {
			return pkg, nil
		}
		return importStdlib(p)
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
	check(geomPkgPath, "geom.go", stubGeom)
	check(predmatPkgPath, "predmat.go", stubPredmat)
	check(joinPkgPath, "join.go", stubJoin)
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
			name: "direct disk read, write, peek are flagged",
			src: `package fixture

import "pmjoin/internal/disk"

func bad(d *disk.Disk, a disk.PageAddr) error {
	if _, err := d.Read(a); err != nil {
		return err
	}
	if _, err := d.Peek(a); err != nil {
		return err
	}
	return d.Write(a, disk.Page{})
}
`,
			lines: []int{6, 9, 12},
		},
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
			// interface method, not disk.Disk or disk.Session; the rule must
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
			// guarded interface (and the concrete disk types) carry the
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
	t.Run("workerpool.go in internal/join is exempt", func(t *testing.T) {
		src := strings.Replace(goSrc, "package fixture", "package join", 1)
		pkg := checkFixtureFile(t, joinPkgPath, "workerpool.go", src)
		expectDiags(t, Run([]*Package{pkg}, analyzersNamed(t, "rawgo")), "rawgo", nil)
	})
	t.Run("other files in internal/join are not exempt", func(t *testing.T) {
		src := strings.Replace(goSrc, "package fixture", "package join", 1)
		pkg := checkFixtureFile(t, joinPkgPath, "exec.go", src)
		expectDiags(t, Run([]*Package{pkg}, analyzersNamed(t, "rawgo")), "rawgo", []int{4, 6})
	})
	t.Run("coordinator.go in internal/shard is exempt", func(t *testing.T) {
		src := strings.Replace(goSrc, "package fixture", "package shard", 1)
		pkg := checkFixtureFile(t, shardPkgPath, "coordinator.go", src)
		expectDiags(t, Run([]*Package{pkg}, analyzersNamed(t, "rawgo")), "rawgo", nil)
	})
	t.Run("other files in internal/shard are not exempt", func(t *testing.T) {
		src := strings.Replace(goSrc, "package fixture", "package shard", 1)
		pkg := checkFixtureFile(t, shardPkgPath, "runner.go", src)
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

func TestFloatEq(t *testing.T) {
	cases := []struct {
		name  string
		path  string
		src   string
		lines []int
	}{
		{
			name: "computed float equality in a distance package is flagged",
			path: "pmjoin/internal/geom",
			src: `package geom

func bad(a, b, c float64) bool {
	return a+b == c || a != c
}
`,
			lines: []int{4, 4},
		},
		{
			name: "constant sentinel comparison is clean",
			path: "pmjoin/internal/cluster",
			src: `package cluster

func ok(x float64) bool {
	return x == 0
}
`,
		},
		{
			name: "inequalities are clean",
			path: "pmjoin/internal/seqdist",
			src: `package seqdist

func ok(a, b float64) bool {
	return a <= b
}
`,
		},
		{
			name: "packages outside the distance set are not policed",
			path: "pmjoin/internal/fixture",
			src: `package fixture

func elsewhere(a, b float64) bool {
	return a == b
}
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectDiags(t, runOne(t, "floateq", tc.path, tc.src), "floateq", tc.lines)
		})
	}
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

func bad(d *disk.Disk, a disk.PageAddr) any {
	pg, _ := d.Read(a)
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

func bad(d *disk.Disk, a disk.PageAddr) error {
	//lint:ignore bufferbypass cost-model scan charged directly
	_, err := d.Read(a)
	return err
}
`
		expectDiags(t, runOne(t, "bufferbypass", fixturePath, src), "bufferbypass", nil)
	})
	t.Run("same-line directive silences the finding", func(t *testing.T) {
		src := `package fixture

import "pmjoin/internal/disk"

func bad(d *disk.Disk, a disk.PageAddr) error {
	_, err := d.Read(a) //lint:ignore bufferbypass cost-model scan charged directly
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
func bad(d *disk.Disk, a disk.PageAddr) error {
	_, err := d.Read(a)
	return err
}
`
		expectDiags(t, runOne(t, "bufferbypass", fixturePath, src), "bufferbypass", []int{9})
	})
	t.Run("unknown rule name is itself reported", func(t *testing.T) {
		src := `package fixture

import "pmjoin/internal/disk"

func bad(d *disk.Disk, a disk.PageAddr) error {
	//lint:ignore nosuchrule,floatq typo of a rule name
	_, err := d.Read(a)
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

func bad(d *disk.Disk, a disk.PageAddr) error {
	//lint:ignore rawgo wrong rule
	_, err := d.Read(a)
	return err
}
`
		expectDiags(t, runOne(t, "bufferbypass", fixturePath, src), "bufferbypass", []int{7})
	})
	t.Run("missing reason is itself reported", func(t *testing.T) {
		src := `package fixture

import "pmjoin/internal/disk"

func bad(d *disk.Disk, a disk.PageAddr) error {
	//lint:ignore bufferbypass
	_, err := d.Read(a)
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
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	pkgs, err := LoadModule(root)
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
			name: "prediction-matrix marks depend on insertion order",
			src: `package fixture

import "pmjoin/internal/predmat"

func bad(pm *predmat.Matrix, pairs map[int]int) {
	for i, j := range pairs {
		pm.Mark(i, j)
	}
}
`,
			lines: []int{6},
		},
		{
			name: "worker-pool submission order must not come from a map",
			src: `package fixture

import "pmjoin/internal/join"

func bad(pool *join.WorkerPool, work map[int]func() any) {
	for _, w := range work {
		pool.Run([]func() any{w})
	}
}
`,
			lines: []int{6},
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

func TestSlowdist(t *testing.T) {
	const egoPath = "pmjoin/internal/ego"
	t.Run("threshold-compared Dist is flagged", func(t *testing.T) {
		src := `package ego

import "pmjoin/internal/geom"

func f(n geom.Norm, a, b geom.Vector, eps float64) bool {
	return n.Dist(a, b) <= eps
}
`
		expectDiags(t, runOne(t, "slowdist", egoPath, src), "slowdist", []int{6})
	})
	t.Run("every comparison direction and MinDist variant is flagged", func(t *testing.T) {
		src := `package predmat

import "pmjoin/internal/geom"

func f(n geom.Norm, a, b geom.MBR, eps float64) {
	_ = n.MinDist(a, b) <= eps
	_ = n.MinDist(a, b) < eps
	_ = eps >= n.MinDist(b, a)
	_ = n.MinDist(b, a) > eps
}
`
		expectDiags(t, runOne(t, "slowdist", "pmjoin/internal/predmat", src), "slowdist", []int{6, 7, 8, 9})
	})
	t.Run("distance used as a value is clean", func(t *testing.T) {
		src := `package ego

import "pmjoin/internal/geom"

func f(n geom.Norm, a, b geom.Vector) float64 {
	d := n.Dist(a, b)
	return d * 2
}
`
		expectDiags(t, runOne(t, "slowdist", "pmjoin/internal/ego", src), "slowdist", nil)
	})
	t.Run("comparing a stored distance variable is clean", func(t *testing.T) {
		// The rule targets the immediate compute-then-compare shape; a stored
		// distance may have other uses.
		src := `package bfrj

import "pmjoin/internal/geom"

func f(n geom.Norm, a, b geom.Vector, eps float64) bool {
	d := n.Dist(a, b)
	return d <= eps
}
`
		expectDiags(t, runOne(t, "slowdist", "pmjoin/internal/bfrj", src), "slowdist", nil)
	})
	t.Run("packages outside the hot-path set are exempt", func(t *testing.T) {
		src := `package join

import "pmjoin/internal/geom"

func f(n geom.Norm, a, b geom.Vector, eps float64) bool {
	return n.Dist(a, b) <= eps
}
`
		expectDiags(t, runOne(t, "slowdist", joinPkgPath, src), "slowdist", nil)
	})
	t.Run("suppressed site is clean", func(t *testing.T) {
		src := `package ego

import "pmjoin/internal/geom"

func f(n geom.Norm, a, b geom.Vector, eps float64) bool {
	//lint:ignore slowdist one-off diagnostic dump, not on the join path
	return n.Dist(a, b) <= eps
}
`
		expectDiags(t, runOne(t, "slowdist", egoPath, src), "slowdist", nil)
	})
}
