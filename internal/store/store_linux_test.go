//go:build linux

package store

import (
	"testing"

	"pmjoin/internal/disk"
)

// TestFetchIsView pins the zero-copy read: a fetched page's flat block is
// the record's bytes in the file's mapping, so two fetches of one page
// return the same floats, not two copies.
func TestFetchIsView(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for p := 0; p < 3; p++ {
		if err := st.Put(at(disk.PageAddr{File: 0, Page: p}, flatVecPage(8, 60))); err != nil {
			t.Fatal(err)
		}
	}
	addr := disk.PageAddr{File: 0, Page: 1}
	var data [2]uintptr
	for i := range data {
		pg, _, err := st.Fetch(addr)
		if err != nil {
			t.Fatal(err)
		}
		data[i] = dataAddr(pg.Flat.Data)
		if !within(dataAddr(pg.IDs), st.files[0].view) {
			t.Fatalf("fetch %d: IDs are not a view of the mapping", i)
		}
	}
	if data[0] != data[1] {
		t.Errorf("two fetches returned flat blocks at %#x and %#x, want one view", data[0], data[1])
	}
	if m := st.files[0].view; !within(data[0], m) {
		t.Errorf("flat block at %#x lies outside the mapping [%#x, +%d)", data[0], dataAddr(m), len(m))
	}
}
