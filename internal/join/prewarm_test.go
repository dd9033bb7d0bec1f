package join_test

import (
	"slices"
	"testing"

	"pmjoin/internal/buffer"
	"pmjoin/internal/disk"
	"pmjoin/internal/kernel"
	"pmjoin/internal/store"
)

// TestPrefetchPrewarmsFlat pins where a page's flat kernel block comes from
// now that no load hook builds it: every page arrives with its block, so
// neither the coordinator nor a worker ever flattens one. A page built the
// way ingest builds it has its block before any join, and the simulator's
// Get returns that same block; a page fetched from the file store has its
// block too, as a view of the mapped record, holding the same rows.
func TestPrefetchPrewarmsFlat(t *testing.T) {
	d := disk.New(disk.DefaultModel())
	f := d.CreateFile()
	ingested := make([]*kernel.FlatPage, 3)
	for p := range ingested {
		fp := kernel.NewFlatPage(2, 2)
		fp.AppendRow([]float64{float64(p), 0})
		fp.AppendRow([]float64{0, float64(p)})
		ingested[p] = fp
		if _, err := d.AppendPage(f, disk.Page{Kind: disk.Vectors, IDs: []int{2 * p, 2*p + 1}, Flat: *fp}); err != nil {
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
		for p, want := range ingested {
			pg, err := pool.Get(disk.PageAddr{File: f, Page: p})
			if err != nil {
				t.Fatal(err)
			}
			got := pg.Flat
			if got.N != 2 || got.Dim != 2 || !slices.Equal(got.Data, want.Data) {
				t.Fatalf("page %d (backend %T): block %+v, want the ingested rows %v", p, backend, got, want.Data)
			}
			same := &got.Data[0] == &want.Data[0]
			if backend == nil && !same {
				t.Fatalf("simulator page %d: got a different block than the ingested one", p)
			}
			if backend != nil && same {
				t.Fatalf("store page %d: served from memory, not fetched", p)
			}
		}
	}
}
