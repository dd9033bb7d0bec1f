package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Paths of the packages whose invariants the analyzers guard. The analyzers
// match call targets by these import paths, so the suite keeps working if
// files move around within the packages.
const (
	bufferPkgPath  = "pmjoin/internal/buffer"
	diskPkgPath    = "pmjoin/internal/disk"
	metricsPkgPath = "pmjoin/internal/metrics"
	poolPkgPath    = "pmjoin/internal/pool"
)

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one pmlint rule.
type Analyzer struct {
	Name string // rule id, used in output and //lint:ignore directives
	Doc  string // one-line description
	Run  func(p *Package) []Diagnostic
}

// Analyzers returns the full pmlint suite in reporting order: the two rules
// that keep every page read charged (bufferbypass, droppederr) and the two
// that keep runs deterministic (rawgo, maporder). lintunused is a
// pseudo-analyzer: it has no Run of its own — Run() special-cases it and
// reports //lint:ignore directives that suppressed nothing.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		bufferBypassAnalyzer(),
		droppedErrAnalyzer(),
		rawGoAnalyzer(),
		maporderAnalyzer(),
		lintunusedAnalyzer(),
	}
}

// lintunusedAnalyzer flags //lint:ignore directives that suppress nothing.
// Stale suppressions are worse than missing ones: they advertise a fixed
// bug as still present and silently swallow the next real finding on that
// line. A directive is reported only when every rule it names actually ran
// (an "all" directive needs the full suite), so partial runs never produce
// false "unused" reports.
func lintunusedAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lintunused",
		Doc:  "//lint:ignore directive that suppresses no finding of any rule it names",
		// Run is nil: lint.Run special-cases this analyzer, since directive
		// usage is only known after every other analyzer has reported.
	}
}

// IgnorePrefix introduces a suppression comment:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// placed on the flagged line or on the line directly above it. The reason is
// mandatory, and every rule named must exist (or be "all"); a directive that
// breaks either is itself reported under the rule id "lintdirective".
const IgnorePrefix = "//lint:ignore"

// directive is one parsed //lint:ignore comment. It covers its own line and
// the next.
type directive struct {
	pos   token.Position
	rules []string
}

// directives extracts the suppression directives of a package, and emits a
// diagnostic for every malformed one and for every rule name it does not
// know — a typo, or a rule since deleted, would otherwise silence nothing
// and never be reported as unused.
func directives(p *Package) ([]directive, []Diagnostic) {
	known := map[string]bool{"all": true, "lintdirective": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var dirs []directive
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, IgnorePrefix)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{
						Pos:     pos,
						Rule:    "lintdirective",
						Message: "malformed //lint:ignore: want \"//lint:ignore <rule> <reason>\" with a non-empty reason",
					})
					continue
				}
				rules := strings.Split(fields[0], ",")
				for _, r := range rules {
					if !known[r] {
						diags = append(diags, Diagnostic{
							Pos:     pos,
							Rule:    "lintdirective",
							Message: fmt.Sprintf("//lint:ignore names unknown rule %q; see pmlint -list", r),
						})
					}
				}
				dirs = append(dirs, directive{pos: pos, rules: rules})
			}
		}
	}
	return dirs, diags
}

// suppressorIndex returns the index of the first directive that silences d —
// a directive on d's own line or on the line above, naming d's rule or
// "all" — or -1 if none does.
func suppressorIndex(d Diagnostic, dirs []directive) int {
	for i, dir := range dirs {
		if !dir.covers(d.Pos) {
			continue
		}
		for _, r := range dir.rules {
			if r == d.Rule || r == "all" {
				return i
			}
		}
	}
	return -1
}

// covers reports whether the directive's scope includes the position: its
// own line or the line below.
func (dir directive) covers(pos token.Position) bool {
	return dir.pos.Filename == pos.Filename && (dir.pos.Line == pos.Line || dir.pos.Line == pos.Line-1)
}

// Run executes the analyzers over the packages, applies //lint:ignore
// suppression, and returns the surviving diagnostics sorted by position.
// When the analyzer set includes lintunused, directives that silenced no
// finding are themselves reported — but only if every rule a directive
// names was part of this run ("all" requires the full suite), so running a
// single rule never mislabels other rules' suppressions as stale.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	ranRules := map[string]bool{}
	checkUnused := false
	for _, a := range analyzers {
		if a.Name == "lintunused" {
			checkUnused = true
			continue
		}
		ranRules[a.Name] = true
	}
	fullSuite := true
	for _, a := range Analyzers() {
		if a.Run != nil && !ranRules[a.Name] {
			fullSuite = false
		}
	}

	var out []Diagnostic
	for _, p := range pkgs {
		dirs, malformed := directives(p)
		out = append(out, malformed...)
		used := make([]bool, len(dirs))
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			for _, d := range a.Run(p) {
				if i := suppressorIndex(d, dirs); i >= 0 {
					used[i] = true
				} else {
					out = append(out, d)
				}
			}
		}
		if checkUnused {
			for i, dir := range dirs {
				if used[i] || !unusedCheckable(dir, ranRules, fullSuite) {
					continue
				}
				// A lintunused finding lands on the directive's own line, so
				// the directive itself (or its "all") must not silence it:
				// only a distinct directive explicitly naming lintunused can.
				silenced := false
				for j, other := range dirs {
					if j == i || !other.covers(dir.pos) {
						continue
					}
					for _, r := range other.rules {
						if r == "lintunused" {
							used[j] = true
							silenced = true
						}
					}
				}
				if !silenced {
					out = append(out, Diagnostic{
						Pos:  dir.pos,
						Rule: "lintunused",
						Message: fmt.Sprintf("//lint:ignore %s suppresses nothing — the finding it silenced is gone; delete the directive",
							strings.Join(dir.rules, ",")),
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// unusedCheckable reports whether an unused directive can be confidently
// reported given the rules that ran: every named rule must have run, and
// "all" needs the full suite.
func unusedCheckable(dir directive, ranRules map[string]bool, fullSuite bool) bool {
	for _, r := range dir.rules {
		if r == "all" {
			if !fullSuite {
				return false
			}
			continue
		}
		// lintdirective findings (malformed directives) bypass suppression,
		// so a directive naming it can never be "used"; still checkable.
		if r == "lintdirective" || r == "lintunused" {
			continue
		}
		if !ranRules[r] {
			return false
		}
	}
	return true
}

// calleeOf resolves the static callee of a call expression, or nil when the
// callee is dynamic (a function value, a conversion, a builtin).
func (p *Package) calleeOf(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// isMethodOf reports whether fn is the method recv.name (pointer or value
// receiver) of the named type recv declared in package pkgPath.
func isMethodOf(fn *types.Func, pkgPath, recv, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == recv
}

// fromPackage reports whether fn (function or method) is declared in pkgPath.
func fromPackage(fn *types.Func, pkgPath string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

// diag builds a Diagnostic at the position of node.
func (p *Package) diag(node ast.Node, rule, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:     p.Fset.Position(node.Pos()),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	}
}

// funcBodies yields every function body of the file — declarations and
// literals — with a printable name. Each body is visited independently;
// analyzers that track state per function skip nested literals themselves.
func funcBodies(f *ast.File) []namedBody {
	var out []namedBody
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, namedBody{name: fn.Name.Name, body: fn.Body})
			}
		case *ast.FuncLit:
			out = append(out, namedBody{name: "function literal", body: fn.Body})
		}
		return true
	})
	return out
}

type namedBody struct {
	name string
	body *ast.BlockStmt
}

// walkSkipFuncLits walks body in source order, invoking fn with the node and
// the stack of its ancestors (innermost last), without descending into
// nested function literals.
func walkSkipFuncLits(body *ast.BlockStmt, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, isLit := n.(*ast.FuncLit); isLit && len(stack) > 0 {
			return false
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}
