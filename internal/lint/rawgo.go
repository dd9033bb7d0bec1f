package lint

import (
	"go/ast"
	"path/filepath"
)

// rawGoAnalyzer flags bare `go` statements anywhere outside the worker pool.
// The join layer's determinism contract (identical Report / pairs / Plan at
// any Parallelism) holds because every concurrent computation is funneled
// through internal/pool: a Group bounds a call's tasks in flight and Wait
// returns only once they have all run, the System closes its pool after
// the last call in flight, and Exec merges task results in submission
// order. A raw goroutine spawned elsewhere has none of those guarantees — it
// can outlive the run it belongs to, race on the simulated disk's
// accounting, or reorder result emission. The one sanctioned spawn site is
// the pool itself (pool.go in pmjoin/internal/pool). Anything else must
// either use the pool or carry a `//lint:ignore rawgo <reason>`.
func rawGoAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "rawgo",
		Doc:  "bare go statement outside the worker pool escapes the pool's bounding and join guarantees",
		Run:  runRawGo,
	}
}

func runRawGo(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		base := filepath.Base(p.Fset.Position(f.Pos()).Filename)
		if p.Path == poolPkgPath && base == "pool.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				diags = append(diags, p.diag(g, "rawgo",
					"bare go statement; route concurrency through internal/pool so workers are bounded, joined, and deterministic"))
			}
			return true
		})
	}
	return diags
}
