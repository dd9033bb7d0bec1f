package lint

import (
	"go/ast"
	"go/token"
)

// geomPkgPath is the package declaring the Norm distance methods slowdist
// polices.
const geomPkgPath = "pmjoin/internal/geom"

// slowdistPackages are the CPU hot-path packages where a full distance
// computation feeding a threshold comparison must go through internal/kernel
// instead: the kernel decides the same predicate bit-identically with early
// abandon and without the final root (L2) or Pow (Lp) per pair.
var slowdistPackages = map[string]bool{
	"pmjoin/internal/bfrj":    true,
	"pmjoin/internal/ego":     true,
	"pmjoin/internal/predmat": true,
}

// slowdistMethods are the geom.Norm methods whose result, when only compared
// against a threshold, should be a kernel test instead.
var slowdistMethods = map[string]bool{
	"Dist":         true,
	"MinDist":      true,
	"MinDistPoint": true,
}

// slowdistAnalyzer flags geom.Norm distance calls whose result is immediately
// threshold-compared (<=, <, >=, >) in the hot-path join packages. Computing
// the full distance just to compare it throws away the early-abandon and
// root-elision wins of internal/kernel — Threshold for point pairs, Bound for
// MBR lower bounds — which decide the identical predicate. Distance values
// that are stored, returned or otherwise used as numbers are fine and not
// flagged.
func slowdistAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "slowdist",
		Doc:  "threshold-compared geom.Norm distance in a hot-path package; use internal/kernel's Threshold/Bound instead",
		Run:  runSlowdist,
	}
}

func runSlowdist(p *Package) []Diagnostic {
	if !slowdistPackages[p.Path] {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch bin.Op {
			case token.LEQ, token.LSS, token.GEQ, token.GTR:
			default:
				return true
			}
			for _, side := range []ast.Expr{bin.X, bin.Y} {
				call, ok := ast.Unparen(side).(*ast.CallExpr)
				if !ok {
					continue
				}
				fn := p.calleeOf(call)
				if fn == nil || !slowdistMethods[fn.Name()] || !isMethodOf(fn, geomPkgPath, "Norm", fn.Name()) {
					continue
				}
				diags = append(diags, p.diag(bin, "slowdist",
					"threshold comparison of Norm.%s computes the full distance per pair; use internal/kernel (Threshold.Within / Bound.Within) to decide the same predicate with early abandon", fn.Name()))
			}
			return true
		})
	}
	return diags
}
