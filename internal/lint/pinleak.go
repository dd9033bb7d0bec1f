package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// pinleakAnalyzer flags functions that pin pages via buffer.Pool.GetPinned
// or PinSet but can exit without a matching Unpin/UnpinAll. Pinned pages are
// exempt from eviction, so a leaked pin shrinks the effective buffer for the
// rest of the run and silently distorts every I/O count the paper's figures
// are built from (a pinned-out frame turns would-be hits into misses).
//
// The analysis is path-sensitive: a forward dataflow over the function's
// control-flow graph (BuildCFG) tracks the outstanding pin count per path.
// This catches shapes the original source-order scan could not:
//
//   - an Unpin reachable on only one branch exonerated every later return
//     (the scan cleared its flag the moment it saw the call in source order);
//   - a GetPinned inside a loop with a single Unpin after it looked balanced
//     in source order but leaks one pin per extra iteration;
//   - a defer registered on one branch satisfied all paths (the scan used a
//     function-wide "has deferred unpin" shortcut).
//
// Deferred releases are per-path credits: `defer p.Unpin(a)` offsets one
// pin on the paths that execute the defer, `defer p.UnpinAll()` (or a
// deferred closure that unpins) offsets any number — but only on those
// paths. Paths that exit by panicking are exempt (the run is abandoned), as
// are returns inside an `if err != nil` branch: on those paths the whole
// join run is discarded and the pool with it, which this repository treats
// as the error-path contract.
//
// Helpers that pin on behalf of a caller (the caller unpins) are the
// intended use of a `//lint:ignore pinleak <reason>` suppression.
func pinleakAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "pinleak",
		Doc:  "GetPinned/PinSet without a matching Unpin/UnpinAll on all non-error, non-panic paths (CFG dataflow, defer-aware)",
		Run:  runPinleak,
	}
}

func runPinleak(p *Package) []Diagnostic {
	if p.Path == bufferPkgPath {
		return nil // the pool's own implementation manages pin counts freely
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, nb := range funcBodies(f) {
			diags = append(diags, p.pinleakBody(nb)...)
		}
	}
	return diags
}

// pinFact is the per-path pin state. count is the outstanding pins net of
// counted deferred Unpins (saturating at 2, -1 = paths disagree);
// deferredAll is 1 once a deferred UnpinAll (or deferred unpinning closure)
// is registered on the path, after which the path owes nothing — the
// transfer collapses its count to zero so it merges cleanly with paths
// that never pinned. firstPin anchors diagnostics at exits with no return
// statement.
type pinFact struct {
	count       int8
	deferred    int8
	deferredAll int8
	firstPin    token.Pos
}

func mergePinFact(a, b pinFact) pinFact {
	pos := a.firstPin
	if pos == token.NoPos || (b.firstPin != token.NoPos && b.firstPin < pos) {
		pos = b.firstPin
	}
	return pinFact{
		count:       mergeCount(a.count, b.count),
		deferred:    mergeCount(a.deferred, b.deferred),
		deferredAll: mergeCount(a.deferredAll, b.deferredAll),
		firstPin:    pos,
	}
}

func (p *Package) pinleakBody(nb namedBody) []Diagnostic {
	// Cheap pre-pass: only bodies that pin are analyzed. Unpin-only bodies
	// are helpers releasing a caller-held pin.
	hasPin := false
	exemptReturns := map[*ast.ReturnStmt]bool{}
	walkSkipFuncLits(nb.body, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if p.isPin(n) {
				hasPin = true
			}
		case *ast.ReturnStmt:
			if p.inErrorBranch(stack) {
				exemptReturns[n] = true
			}
		}
	})
	if !hasPin {
		return nil
	}

	cfg := BuildCFG(nb.body)
	transfer := func(b *Block, in pinFact) pinFact {
		out := in
		walkBlockNodes(b, func(n ast.Node) {
			if d, isDefer := n.(*ast.DeferStmt); isDefer {
				switch {
				case p.isPoolMethod(d.Call, "Unpin"):
					out.deferred = satIncr(out.deferred)
				case p.deferUnpins(d):
					out.deferredAll = 1
				}
				return
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			switch {
			case p.isPin(call):
				if out.firstPin == token.NoPos {
					out.firstPin = call.Pos()
				}
				out.count = satIncr(out.count)
			case p.isPoolMethod(call, "Unpin"):
				if out.count > 0 {
					out.count--
				}
			case p.isPoolMethod(call, "UnpinAll"):
				out.count = 0 // releases everything, even a mixed count
			}
		})
		// Canonicalize so satisfied paths merge with never-pinned ones:
		// a registered UnpinAll absorbs any count, and counted deferred
		// Unpins net against pins taken on the same path.
		if out.deferredAll == 1 {
			out.count, out.deferred = 0, 0
		}
		for out.count > 0 && out.deferred > 0 {
			out.count--
			out.deferred--
		}
		return out
	}

	res := solveFlow(flowProblem[pinFact]{
		cfg:      cfg,
		boundary: pinFact{},
		merge:    mergePinFact,
		equal:    func(a, b pinFact) bool { return a == b },
		transfer: transfer,
	})

	// One diagnostic per kind per body: a single missing Unpin should not
	// flood every return site.
	var diags []Diagnostic
	reported := map[string]bool{}
	report := func(kind string, node ast.Node, format string, args ...any) {
		if reported[kind] {
			return
		}
		reported[kind] = true
		diags = append(diags, p.diag(node, "pinleak", format, args...))
	}
	for _, b := range cfg.Exit.Preds {
		if !res.Seen[b.Index] || b.Panic != nil {
			continue
		}
		if b.Return != nil && exemptReturns[b.Return] {
			continue
		}
		f := res.Out[b.Index]
		if f.count == 0 {
			continue // nothing outstanding (deferred surplus is harmless: UnpinAll is idempotent, Unpin at zero is the pool's problem to reject)
		}
		mixed := f.count == -1 || f.deferred == -1 || f.deferredAll == -1
		switch {
		case mixed:
			at := pinAnchor(nb, f)
			if b.Return != nil {
				at = b.Return
			}
			report("mixed", at,
				"%s may exit with page(s) still pinned — pinned on some paths into this exit, released on others; release on every path or defer UnpinAll",
				nb.name)
		case b.Return != nil:
			report("leak", b.Return,
				"%s returns while page(s) pinned since this function's GetPinned; add Unpin/UnpinAll (or defer one)", nb.name)
		default:
			report("leak", pinAnchor(nb, f),
				"%s pins page(s) here but no Unpin/UnpinAll follows before the function exits; leaked pins freeze buffer frames and corrupt I/O accounting",
				nb.name)
		}
	}
	return diags
}

// pinAnchor anchors an exit diagnostic when the exiting block has no return
// statement: the first pin site if known, else the body.
func pinAnchor(nb namedBody, f pinFact) ast.Node {
	if f.firstPin != token.NoPos {
		return posNode{f.firstPin}
	}
	return nb.body
}

// isPin reports whether call pins pages: buffer.Pool.GetPinned, or PinSet,
// which pins a whole set and counts as one pin (released by UnpinAll).
func (p *Package) isPin(call *ast.CallExpr) bool {
	return p.isPoolMethod(call, "GetPinned") || p.isPoolMethod(call, "PinSet")
}

// isPoolMethod reports whether call invokes buffer.Pool.<name>.
func (p *Package) isPoolMethod(call *ast.CallExpr, name string) bool {
	return isMethodOf(p.calleeOf(call), bufferPkgPath, "Pool", name)
}

// deferUnpins reports whether the deferred call releases all pins: a direct
// UnpinAll, or a deferred function literal containing any unpin call.
func (p *Package) deferUnpins(d *ast.DeferStmt) bool {
	if p.isPoolMethod(d.Call, "UnpinAll") {
		return true
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if p.isPoolMethod(call, "Unpin") || p.isPoolMethod(call, "UnpinAll") {
				found = true
			}
		}
		return !found
	})
	return found
}

// inErrorBranch reports whether the node stack passes through the body of an
// `if <err> != nil` statement (including `if ..., err := f(); err != nil`).
func (p *Package) inErrorBranch(stack []ast.Node) bool {
	for i, n := range stack {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok || !p.isErrNilCheck(ifStmt.Cond) {
			continue
		}
		// Only the taken (error) branch is exempt, not the init/cond.
		if i+1 < len(stack) && stack[i+1] == ifStmt.Body {
			return true
		}
	}
	return false
}

// isErrNilCheck matches `x != nil` where x has the error interface type.
func (p *Package) isErrNilCheck(cond ast.Expr) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	var x ast.Expr
	switch {
	case isNil(bin.Y):
		x = bin.X
	case isNil(bin.X):
		x = bin.Y
	default:
		return false
	}
	tv, ok := p.Info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	errType, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return errType != nil && types.Implements(tv.Type, errType)
}
