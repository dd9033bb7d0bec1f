package join_test

import (
	"testing"

	"pmjoin/internal/buffer"
	"pmjoin/internal/disk"
	"pmjoin/internal/join"
	"pmjoin/internal/kernel"
	"pmjoin/internal/store"
)

// ownsFlat reports whether the page's rows are views of its flat block, that
// is, whether the page was built over the block (join.NewVectorPage).
func ownsFlat(p *join.VectorPage) bool {
	f := p.Flat()
	return len(f.Data) > 0 && &f.Data[0] == &p.Vecs[0][0]
}

// TestPrefetchPrewarmsFlat pins where a page's flat kernel block comes from
// now that no load hook builds it: every page arrives with its block, so
// neither the coordinator nor a worker ever flattens one. A page built the
// way ingest builds it has its block before any join, and the simulator's
// Get returns that same page; a page fetched from the file store has its
// block too, as a view of the mapped record; and Flat hands out that
// block.
func TestPrefetchPrewarmsFlat(t *testing.T) {
	d := disk.New(disk.DefaultModel())
	f := d.CreateFile()
	ingested := make([]*join.VectorPage, 3)
	for p := range ingested {
		fp := kernel.NewFlatPage(2, 2)
		fp.AppendRow([]float64{float64(p), 0})
		fp.AppendRow([]float64{0, float64(p)})
		ingested[p] = join.NewVectorPage([]int{2 * p, 2*p + 1}, fp)
		if !ownsFlat(ingested[p]) {
			t.Fatalf("page %d: ingest did not build the page over its flat block", p)
		}
		if _, err := d.AppendPage(f, ingested[p]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := d.EachPage(st.Put); err != nil {
		t.Fatal(err)
	}

	for _, backend := range []disk.Backend{nil, st} {
		pool, err := buffer.NewPool(d.NewSessionOn(backend), 4, buffer.LRU)
		if err != nil {
			t.Fatal(err)
		}
		for p := range ingested {
			pg, err := pool.Get(disk.PageAddr{File: f, Page: p})
			if err != nil {
				t.Fatal(err)
			}
			got := pg.Payload.(*join.VectorPage)
			if backend == nil && got != ingested[p] {
				t.Fatalf("simulator page %d: got a different payload than the ingested one", p)
			}
			if backend != nil && got == ingested[p] {
				t.Fatalf("store page %d: served from memory, not fetched", p)
			}
			if !ownsFlat(got) {
				t.Fatalf("page %d (backend %T): Flat's block is not the one the rows view", p, backend)
			}
		}
	}
}
