package lint

import (
	"go/ast"
)

// bufferBypassAnalyzer flags direct page I/O on disk.Disk from outside
// internal/buffer. Every page the join phase touches must be charged through
// a buffer.Pool: the pool is what turns residency into free hits, and the
// paper's reported I/O counts (reads, seeks, hit ratios behind Figures
// 10-16) assume all page traffic is pool-mediated. A direct disk.Disk
// Read/Write/Peek from an executor bypasses hit/miss accounting and head
// tracking, so costs stop matching what a real buffered system would pay.
//
// Deliberate bypasses exist — staging writes of partition files, external
// sort cost charging, zero-cost metadata Peeks — because the pool has no
// write path; each must carry a `//lint:ignore bufferbypass <reason>`
// explaining why the access is charged (or free) by design.
//
// disk.Session is policed identically: a session is a per-run accounting
// scope over the same disk, and unpooled session I/O skips hit/miss
// accounting just as unpooled disk I/O does.
//
// buffer.Source closes the remaining hole: the interface beneath the pool
// has the same Read method, and a call through a Source-typed value resolves
// to the interface method rather than to disk.Disk or disk.Session, escaping
// the concrete-receiver checks. Engine code holding the pool's source (for
// example to issue its own readahead instead of pinning through Get or
// PinSet, which would skip hit/miss accounting and eviction order) is exactly
// the bypass this rule exists to catch, so interface-mediated reads are
// flagged outside internal/buffer and internal/disk too.
func bufferBypassAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "bufferbypass",
		Doc:  "direct disk.Disk page I/O outside internal/buffer bypasses pool accounting",
		Run:  runBufferBypass,
	}
}

var diskPageMethods = []string{"Read", "Write", "Peek"}

func runBufferBypass(p *Package) []Diagnostic {
	if p.Path == bufferPkgPath || p.Path == diskPkgPath {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.calleeOf(call)
			for _, m := range diskPageMethods {
				if isMethodOf(fn, diskPkgPath, "Disk", m) || isMethodOf(fn, diskPkgPath, "Session", m) {
					recv := "Disk"
					if isMethodOf(fn, diskPkgPath, "Session", m) {
						recv = "Session"
					}
					diags = append(diags, p.diag(call, "bufferbypass",
						"disk.%s.%s outside internal/buffer bypasses buffer-pool I/O accounting; route page access through buffer.Pool", recv, m))
					break
				}
			}
			if isMethodOf(fn, bufferPkgPath, "Source", "Read") {
				diags = append(diags, p.diag(call, "bufferbypass",
					"buffer.Source.Read outside internal/buffer bypasses buffer-pool I/O accounting; route page access through buffer.Pool (Get for one page, PinSet for a set)"))
			}
			return true
		})
	}
	return diags
}
