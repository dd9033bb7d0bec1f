package lint

import "strings"

// Package paths referenced by individual rules.
const (
	metricsPkgPath = "pmjoin/internal/metrics"
	storePkgPath   = "pmjoin/internal/store"
)

// walltimeAllowed lists the internal packages sanctioned to read the wall
// clock: metrics (the phase-scoped collector) and store (the file-backed
// page store, whose whole point is *measured* physical read latencies — they
// flow only into disk.Measured / ExecStats.MeasuredIOWall, never into a
// Report). Everything else under internal/ is hot-path and stays
// modeled-time only.
var walltimeAllowed = map[string]bool{
	metricsPkgPath: true,
	storePkgPath:   true,
}

// walltimeAnalyzer flags `import "time"` in the hot-path internal packages.
// Every cost the simulator reports is modeled, not measured: disk seconds
// come from the linear-disk model and CPU seconds from calibrated per-
// operation constants, which is what makes a Report a deterministic function
// of the schedule. A time.Now() in disk, buffer, predmat, cluster, sched or
// join is either dead weight on the hot path or — worse — the first step of
// time-based accounting that would make Reports host-dependent. All wall-
// clock measurement flows through the sanctioned seams instead — the
// walltimeAllowed set: internal/metrics (the phase-scoped collector) and
// internal/store (measured physical read latencies) — and the ExecStats
// fields at the API layer (outside internal/). Anything else needs a
// //lint:ignore walltime <reason>.
func walltimeAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "walltime",
		Doc:  "import of time in a hot-path internal package; wall-clock measurement belongs to internal/metrics, internal/store, or ExecStats",
		Run:  runWalltime,
	}
}

func runWalltime(p *Package) []Diagnostic {
	if !strings.HasPrefix(p.Path, "pmjoin/internal/") {
		return nil
	}
	if walltimeAllowed[p.Path] {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) != "time" {
				continue
			}
			diags = append(diags, p.diag(imp, "walltime",
				"hot-path package imports time; route wall-clock measurement through internal/metrics (or ExecStats at the API layer) so simulated costs stay deterministic"))
		}
	}
	return diags
}
