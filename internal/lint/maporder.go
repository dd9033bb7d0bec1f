package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// maporderAnalyzer flags `range` over a map whose loop body has an
// order-sensitive effect without a sorted-keys normalization. Go randomizes
// map iteration order per run, so any effect that depends on visit order —
// appending to a slice that is not subsequently sorted, submitting to the
// worker pool, emitting trace events, accumulating floating-point sums,
// sending on a channel, printing — makes the result differ run to run.
// That is exactly the class of bug the determinism contract (bit-identical
// Report/Pairs/Plan at any Parallelism) cannot tolerate: one unsorted map
// walk in a merge path turns into a silently wrong published figure.
//
// Effects that are genuinely order-insensitive stay clean: integer
// counters (addition is commutative and exact), map/set writes, and the
// canonical normalization idiom
//
//	keys := make([]K, 0, len(m))
//	for k := range m { keys = append(keys, k) }
//	sort.Slice(keys, ...)   // or sort.Ints/Strings/..., slices.Sort*
//
// where the appended-to slice is sorted later in the same enclosing block.
func maporderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "maporder",
		Doc:  "range over a map with an order-sensitive effect (append/submit/trace/float-accumulate) and no sorted-keys normalization",
		Run:  runMaporder,
	}
}

func runMaporder(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, nb := range funcBodies(f) {
			diags = append(diags, p.maporderBody(nb)...)
		}
	}
	return diags
}

func (p *Package) maporderBody(nb namedBody) []Diagnostic {
	var diags []Diagnostic
	walkSkipFuncLits(nb.body, func(n ast.Node, stack []ast.Node) {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !p.isMapType(rng.X) {
			return
		}
		if effect := p.orderSensitiveEffect(rng, stack); effect != "" {
			diags = append(diags, p.diag(rng, "maporder",
				"%s ranges over a map and %s in the loop body — iteration order varies per run; iterate sorted keys or restructure the effect",
				nb.name, effect))
		}
	})
	return diags
}

// isMapType reports whether the expression has map type (named or not).
func (p *Package) isMapType(e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// orderSensitiveEffect scans the loop body for the first order-sensitive
// effect and describes it; "" means the body is order-insensitive. stack is
// the ancestor chain of the range statement (innermost last), used to find
// the trailing sort of the normalization idiom.
func (p *Package) orderSensitiveEffect(rng *ast.RangeStmt, stack []ast.Node) string {
	effect := ""
	set := func(e string) {
		if effect == "" {
			effect = e
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && p.isBuiltinAppend(call) && i < len(n.Lhs) {
					if !p.appendNormalizedLater(n.Lhs[i], rng, stack) {
						set("appends to a slice that is never sorted afterward")
					}
				}
			}
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN ||
				n.Tok == token.MUL_ASSIGN || n.Tok == token.QUO_ASSIGN {
				if len(n.Lhs) == 1 && p.isFloatExpr(n.Lhs[0]) {
					set("accumulates a floating-point sum (rounding is order-dependent)")
				}
			}
		case *ast.SendStmt:
			set("sends on a channel (delivery order leaks iteration order)")
		case *ast.CallExpr:
			fn := p.calleeOf(n)
			switch {
			case isMethodOf(fn, poolPkgPath, "Pool", "Run"), isMethodOf(fn, poolPkgPath, "Group", "Go"):
				set("submits worker-pool tasks (submission-order merge)")
			case fromPackage(fn, metricsPkgPath):
				set("emits metrics/trace events (event order)")
			case fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
				(fn.Name() == "Print" || fn.Name() == "Println" || fn.Name() == "Printf" ||
					fn.Name() == "Fprint" || fn.Name() == "Fprintln" || fn.Name() == "Fprintf"):
				set("prints (output order leaks iteration order)")
			}
		}
		return true
	})
	return effect
}

// isBuiltinAppend matches a call of the append builtin.
func (p *Package) isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// isFloatExpr reports whether the expression's type is a floating-point
// scalar.
func (p *Package) isFloatExpr(e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// appendNormalizedLater recognizes the sorted-keys idiom: the slice
// appended to inside the map loop is passed to a sort call in a statement
// after the loop, within the block that directly contains the loop.
func (p *Package) appendNormalizedLater(target ast.Expr, rng *ast.RangeStmt, stack []ast.Node) bool {
	obj := p.exprObject(target)
	if obj == nil {
		return false
	}
	// Find the statement list containing the range loop.
	var list []ast.Stmt
	for i := len(stack) - 1; i >= 0; i-- {
		if blk, ok := stack[i].(*ast.BlockStmt); ok {
			list = blk.List
			break
		}
		if cc, ok := stack[i].(*ast.CaseClause); ok {
			list = cc.Body
			break
		}
	}
	after := false
	for _, s := range list {
		if !after {
			if containsNode(s, rng) {
				after = true
			}
			continue
		}
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !p.isSortCall(call) {
				return true
			}
			for _, arg := range call.Args {
				if p.exprObject(arg) == obj {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isSortCall matches the stdlib sorters: sort.* and slices.Sort*.
func (p *Package) isSortCall(call *ast.CallExpr) bool {
	fn := p.calleeOf(call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return len(fn.Name()) >= 4 && fn.Name()[:4] == "Sort"
	}
	return false
}

// exprObject resolves an identifier (possibly parenthesized) to its object;
// nil for anything more complex.
func (p *Package) exprObject(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// containsNode reports whether root's subtree contains target.
func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}
