package join

import (
	"testing"

	"pmjoin/internal/buffer"
	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
)

// TestPrefetchPrewarmsFlat pins the prefetch admission path's kernel
// prewarming: a page staged by Pool.Prefetch must run the pool's onLoad hook
// (PrepareFlat, which Engine.Run installs), so the kernels — per page pair or
// whole cluster — find the flat block prebuilt on the coordinator instead of
// building it lazily inside worker tasks. Regression test for the audit of
// the staged-admission path: Prefetch and Get must prewarm identically.
func TestPrefetchPrewarmsFlat(t *testing.T) {
	d := disk.New(disk.DefaultModel())
	f := d.CreateFile()
	payloads := make([]*VectorPage, 3)
	for p := range payloads {
		payloads[p] = &VectorPage{
			IDs:  []int{2 * p, 2*p + 1},
			Vecs: []geom.Vector{{float64(p), 0}, {0, float64(p)}},
		}
		if _, err := d.AppendPage(f, payloads[p]); err != nil {
			t.Fatal(err)
		}
	}
	io := d.NewSession()
	pool, err := buffer.NewPool(io, 4, buffer.LRU)
	if err != nil {
		t.Fatal(err)
	}
	pool.SetOnLoad(func(pg *disk.Page) { PrepareFlat(pg.Payload) })
	for p, payload := range payloads {
		ok, err := pool.Prefetch(disk.PageAddr{File: f, Page: p})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("prefetch of page %d not admitted", p)
		}
		// The flat block must exist before any Get claims the staged frame:
		// staged claims skip the load path, so a missing prewarm here would
		// push the build into whichever worker touches the page first.
		if payload.flat.Load() == nil {
			t.Fatalf("page %d: Prefetch admission did not prewarm the flat block", p)
		}
	}
	// The claim must not rebuild: the pointer Get's caller observes is the
	// one the prefetch built.
	before := payloads[0].flat.Load()
	pg, err := pool.Get(disk.PageAddr{File: f, Page: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := pg.Payload.(*VectorPage).flat.Load(); got != before {
		t.Fatal("claiming a staged frame rebuilt the flat block")
	}
}
