package experiments

import (
	"testing"

	"pmjoin"
)

// TestFig14EGOMonotonicityDiagnostic checks the shape of EGO's I/O column in
// Figure 14: at the one ε calibrated on the smallest pair, EGO's modeled I/O
// seconds strictly grow with the per-dataset size.
func TestFig14EGOMonotonicityDiagnostic(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("four EGO joins take ~17 s under the race detector")
	}
	cfg := &Config{Scale: 0.05, Seed: 7}
	fixedEps := 0.0
	prevIO := 0.0
	for _, f := range []float64{0.125, 0.25, 0.375, 0.5} {
		sys, da, db, eps, err := LandsatPair(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		if fixedEps == 0 {
			fixedEps = eps
		}
		res, err := sys.Join(da, db, pmjoin.Options{
			Method: pmjoin.EGO, Epsilon: fixedEps, BufferPages: cfg.buf(2000),
		})
		if err != nil {
			t.Fatal(err)
		}
		io := res.Report.IOSeconds
		t.Logf("n=%d pages=%d io=%.2f reads=%d seeks=%d", da.Objects(), da.Pages(), io, res.Report.PageReads, res.Report.Seeks)
		if io <= prevIO {
			t.Errorf("EGO I/O at n=%d is %.4f s, not above %.4f s at the previous size", da.Objects(), io, prevIO)
		}
		prevIO = io
	}
}
