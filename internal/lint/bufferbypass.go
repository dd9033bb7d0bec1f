package lint

import (
	"go/ast"
)

// bufferBypassAnalyzer flags direct page I/O on disk.Session from outside
// internal/buffer. Every page the join phase touches must be charged through
// a buffer.Pool: the pool is what turns residency into free hits, and the
// paper's reported I/O counts (reads, seeks, hit ratios behind Figures
// 10-16) assume all page traffic is pool-mediated. A session is the only
// thing that reads, writes or peeks at a page (disk.Disk is a page catalog
// with no page method), and a direct Session Read/Write/Peek from an
// executor bypasses hit/miss accounting, so costs stop matching what a real
// buffered system would pay.
//
// Deliberate bypasses exist — staging writes of partition files, external
// sort cost charging, zero-cost metadata Peeks — because the pool has no
// write path; each must carry a `//lint:ignore bufferbypass <reason>`
// explaining why the access is charged (or free) by design.
//
// buffer.Source closes the remaining hole: the interface beneath the pool
// has the same Read method, and a call through a Source-typed value resolves
// to the interface method rather than to disk.Session, escaping the
// concrete-receiver check. Engine code holding the pool's source (for
// example to issue its own readahead instead of pinning through Get or
// PinSet, which would skip hit/miss accounting and eviction order) is exactly
// the bypass this rule exists to catch, so interface-mediated reads are
// flagged outside internal/buffer and internal/disk too.
func bufferBypassAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "bufferbypass",
		Doc:  "direct disk.Session page I/O outside internal/buffer bypasses pool accounting",
		Run:  runBufferBypass,
	}
}

var sessionPageMethods = []string{"Read", "Write", "Peek"}

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
			for _, m := range sessionPageMethods {
				if isMethodOf(fn, diskPkgPath, "Session", m) {
					diags = append(diags, p.diag(call, "bufferbypass",
						"disk.Session.%s outside internal/buffer bypasses buffer-pool I/O accounting; route page access through buffer.Pool", m))
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
