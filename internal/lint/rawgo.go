package lint

import (
	"go/ast"
	"path/filepath"
)

// rawGoAnalyzer flags bare `go` statements anywhere outside the worker pool.
// The join layer's determinism contract (identical Report / pairs / Plan at
// any Parallelism) holds because every concurrent computation is funneled
// through join.WorkerPool: the pool bounds fan-out, Close joins every worker
// before a run returns, and Exec merges task results in submission order. A
// raw goroutine spawned elsewhere has none of those guarantees — it can
// outlive the run it belongs to, race on the simulated disk's accounting, or
// reorder result emission. The one sanctioned spawn site is the pool itself
// (workerpool.go in pmjoin/internal/join); shards run on a pool of their
// own. Anything else must either use the pool or carry a
// `//lint:ignore rawgo <reason>`.
func rawGoAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "rawgo",
		Doc:  "bare go statement outside the join worker pool escapes the pool's bounding and join guarantees",
		Run:  runRawGo,
	}
}

func runRawGo(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		base := filepath.Base(p.Fset.Position(f.Pos()).Filename)
		if p.Path == joinPkgPath && base == "workerpool.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				diags = append(diags, p.diag(g, "rawgo",
					"bare go statement; route concurrency through join.WorkerPool so workers are bounded, joined, and deterministic"))
			}
			return true
		})
	}
	return diags
}
