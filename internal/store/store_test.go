package store

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
)

func vecPage(base int) *disk.Page {
	return vectorPage([]int{base, base + 1}, []geom.Vector{{float64(base), 1}, {float64(base) + 0.5, -2}})
}

// at returns pg addressed at addr, for Put.
func at(addr disk.PageAddr, pg *disk.Page) *disk.Page {
	pg.Addr = addr
	return pg
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	addrs := []disk.PageAddr{
		{File: 0, Page: 0}, {File: 0, Page: 1}, {File: 3, Page: 0}, {File: 3, Page: 1},
	}
	for i, addr := range addrs {
		if err := st.Put(at(addr, vecPage(10*i))); err != nil {
			t.Fatalf("Put(%v): %v", addr, err)
		}
	}
	for i, addr := range addrs {
		pg, secs, err := st.Fetch(addr)
		if err != nil {
			t.Fatalf("Fetch(%v): %v", addr, err)
		}
		if secs < 0 {
			t.Errorf("Fetch(%v) measured %v seconds", addr, secs)
		}
		if want := at(addr, vecPage(10*i)); !eqPage(pg, want) || pg.Addr != addr {
			t.Errorf("Fetch(%v) = %+v, want %+v", addr, pg, want)
		}
	}
	if got := st.Pages(3); got != 2 {
		t.Errorf("Pages(3) = %d, want 2", got)
	}
}

func TestStoreAbsentPages(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(at(disk.PageAddr{File: 1, Page: 0}, vecPage(0))); err != nil {
		t.Fatal(err)
	}
	// A page past the end cannot be Put: there are no gap slots.
	if err := st.Put(at(disk.PageAddr{File: 1, Page: 2}, vecPage(2))); err == nil {
		t.Error("Put past the end of the file succeeded")
	}
	for _, addr := range []disk.PageAddr{
		{File: 9, Page: 0},  // unknown file
		{File: 1, Page: 7},  // past the end
		{File: 1, Page: 2},  // refused above
		{File: 1, Page: -1}, // nonsense index
	} {
		if _, _, err := st.Fetch(addr); !errors.Is(err, disk.ErrNoSuchPage) {
			t.Errorf("Fetch(%v) err = %v, want ErrNoSuchPage", addr, err)
		}
	}
}

func TestStoreOverwrite(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	addr := disk.PageAddr{File: 0, Page: 0}
	if err := st.Put(at(addr, vecPage(1))); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(at(addr, vecPage(42))); err == nil {
		t.Fatal("a second Put of one page succeeded: stored pages are write-once")
	}
	got, _, err := st.Fetch(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got.IDs[0] != 1 {
		t.Errorf("after the refused overwrite, IDs[0] = %d, want 1", got.IDs[0])
	}
}

// TestStoreSkipsUnencodable pins the scratch-page contract: a scratch page
// holds no objects and has no wire encoding, so its Put fails with
// ErrUnsupportedPayload, creates no file, and the page is not stored.
func TestStoreSkipsUnencodable(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	addr := disk.PageAddr{File: 0, Page: 0}
	if err := st.Put(&disk.Page{Addr: addr}); !errors.Is(err, ErrUnsupportedPayload) {
		t.Fatalf("Put(scratch page) err = %v, want ErrUnsupportedPayload", err)
	}
	if n := st.Pages(addr.File); n != 0 {
		t.Errorf("scratch page took %d page slots", n)
	}
	if _, _, err := st.Fetch(addr); !errors.Is(err, disk.ErrNoSuchPage) {
		t.Errorf("Fetch err = %v, want ErrNoSuchPage", err)
	}
}

func TestStoreDropCaches(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	addr := disk.PageAddr{File: 0, Page: 0}
	if err := st.Put(at(addr, vecPage(7))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Fetch(addr); err != nil { // warm the mapping first
		t.Fatal(err)
	}
	if err := st.DropCaches(); err != nil {
		t.Fatalf("DropCaches: %v", err)
	}
	got, _, err := st.Fetch(addr)
	if err != nil {
		t.Fatalf("Fetch after DropCaches: %v", err)
	}
	if got.IDs[0] != 7 {
		t.Errorf("IDs[0] = %d, want 7", got.IDs[0])
	}
}

// TestStoreConcurrentPutFetch races appends against reads across files
// under -race: file 1 is complete and mapped, file 0 grows while it is read,
// so its later pages lie past its mapping and are read with pread.
func TestStoreConcurrentPutFetch(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const pages = 64
	for p := 0; p < pages; p++ {
		if err := st.Put(at(disk.PageAddr{File: 1, Page: p}, vecPage(p))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put(at(disk.PageAddr{File: 0, Page: 0}, vecPage(0))); err != nil {
		t.Fatal(err)
	}
	var put atomic.Int64 // pages of file 0 stored so far
	put.Store(1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for p := 1; p < pages; p++ {
			if err := st.Put(at(disk.PageAddr{File: 0, Page: p}, vecPage(p))); err != nil {
				t.Errorf("Put page %d: %v", p, err)
				return
			}
			put.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4*pages; i++ {
			for _, addr := range []disk.PageAddr{
				{File: 0, Page: i % int(put.Load())},
				{File: 1, Page: i % pages},
			} {
				pg, _, err := st.Fetch(addr)
				if err != nil {
					t.Errorf("Fetch(%v): %v", addr, err)
					return
				}
				if pg.IDs[0] != addr.Page {
					t.Errorf("Fetch(%v) IDs[0] = %d", addr, pg.IDs[0])
					return
				}
			}
		}
	}()
	wg.Wait()
	for p := 0; p < pages; p++ {
		if _, _, err := st.Fetch(disk.PageAddr{File: 0, Page: p}); err != nil {
			t.Fatalf("final Fetch page %d: %v", p, err)
		}
	}
}

// TestSessionThroughStore is the seam integration test: a Disk mirrored into
// a Store serves a Session's reads from real files, counts them in Measured,
// and keeps the logical Stats identical to a simulator session.
func TestSessionThroughStore(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	d := disk.New(disk.DefaultModel())
	f := d.CreateFile()
	var addrs []disk.PageAddr
	for p := 0; p < 4; p++ {
		addr, err := d.AppendPage(f, *vecPage(p))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	// Seed pages materialized before the mirror existed, then attach it.
	if err := d.EachPage(st.Put); err != nil {
		t.Fatal(err)
	}
	d.SetMirror(st)
	if addr, err := d.AppendPage(f, *vecPage(4)); err != nil {
		t.Fatal(err)
	} else {
		addrs = append(addrs, addr)
	}

	sim := d.NewSession()
	phys := d.NewSessionOn(st)
	for _, addr := range addrs {
		simPg, err := sim.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		physPg, err := phys.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !eqPage(simPg, physPg) {
			t.Errorf("Read(%v): backend page %+v != memory page %+v", addr, physPg, simPg)
		}
	}
	if sim.Stats() != phys.Stats() {
		t.Errorf("logical stats diverge: sim %+v, phys %+v", sim.Stats(), phys.Stats())
	}
	m := phys.Measured()
	if m.Reads != int64(len(addrs)) {
		t.Errorf("Measured.Reads = %d, want %d", m.Reads, len(addrs))
	}
	if sm := sim.Measured(); sm != (disk.Measured{}) {
		t.Errorf("simulator session Measured = %+v, want zero", sm)
	}
}

func TestSaveLoadData(t *testing.T) {
	dir := t.TempDir()
	cases := []Data{
		{Kind: disk.Vectors, Vectors: [][]float64{{1, 2}, {3, 4}}},
		{Kind: disk.Series, Series: []float64{0.5, 1.5}},
		{Kind: disk.Strings, String: []byte("acgt")},
	}
	for i, data := range cases {
		path := fmt.Sprintf("%s/data%d.pmj", dir, i)
		if err := SaveData(path, data); err != nil {
			t.Fatalf("SaveData(%v): %v", data.Kind, err)
		}
		got, err := LoadData(path)
		if err != nil {
			t.Fatalf("LoadData(%v): %v", data.Kind, err)
		}
		if !eqData(got, data) {
			t.Errorf("LoadData = %+v, want %+v", got, data)
		}
	}
	if err := SaveData(dir+"/bad.pmj", Data{Kind: disk.Scratch, Vectors: [][]float64{{1}}}); !errors.Is(err, ErrUnsupportedPayload) {
		t.Errorf("SaveData(scratch data) err = %v, want ErrUnsupportedPayload", err)
	}
	// A page record on disk is not a dataset.
	rec, err := EncodePage(vecPage(0))
	if err != nil {
		t.Fatal(err)
	}
	pagePath := dir + "/page.pmj"
	if err := os.WriteFile(pagePath, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadData(pagePath); err == nil {
		t.Error("LoadData(page record) succeeded, want error")
	}
}

// flatVecPage returns a rows×dim vector page with distinct coordinates.
func flatVecPage(rows, dim int) *disk.Page {
	var ids []int
	var vecs []geom.Vector
	for i := 0; i < rows; i++ {
		v := make(geom.Vector, dim)
		for j := range v {
			v[j] = float64(i*dim+j) / 7
		}
		ids = append(ids, 1000+i)
		vecs = append(vecs, v)
	}
	return vectorPage(ids, vecs)
}

// TestStoreRecordsAligned checks the invariant page views rest on: after any
// mix of page kinds and lengths appended across files, every record starts
// on an 8-byte boundary.
func TestStoreRecordsAligned(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pages := []*disk.Page{
		vecPage(1), sampleSeriesPage(), sampleStringPage(),
		{Kind: disk.Strings, IDs: []int{1}, Starts: []int{0}, Windows: [][]byte{[]byte("odd")}, Freqs: [][]int{{1}}},
		{Kind: disk.Strings, IDs: []int{1}, Starts: []int{0}, Windows: [][]byte{[]byte("abcde")}, Freqs: [][]int{{1}}},
		flatVecPage(3, 5),
	}
	for round := 0; round < 3; round++ {
		for i, p := range pages {
			addr := disk.PageAddr{File: disk.FileID(i % 2), Page: st.Pages(disk.FileID(i % 2))}
			if err := st.Put(at(addr, p)); err != nil {
				t.Fatalf("Put(%v page): %v", p.Kind, err)
			}
		}
	}
	for id, sf := range st.files {
		if sf.size%8 != 0 {
			t.Errorf("file %d: size %d is not a multiple of 8", id, sf.size)
		}
		for page, off := range sf.offsets {
			if off%8 != 0 {
				t.Errorf("file %d page %d: record at offset %d", id, page, off)
			}
		}
	}
	// Every page reads back, the string records included.
	for id, sf := range st.files {
		for page := range sf.offsets {
			if _, _, err := st.Fetch(disk.PageAddr{File: id, Page: page}); err != nil {
				t.Errorf("Fetch(%d, %d): %v", id, page, err)
			}
		}
	}
}

// TestFetchAllocsFlat pins the cost of a warm page fetch: one allocation,
// the page itself, whose IDs and flat block view the mapping; none per row.
func TestFetchAllocsFlat(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rowCounts := []int{8, 64}
	for i, rows := range rowCounts {
		if err := st.Put(at(disk.PageAddr{File: 0, Page: i}, flatVecPage(rows, 60))); err != nil {
			t.Fatal(err)
		}
	}
	var allocs []float64
	for i := range rowCounts {
		addr := disk.PageAddr{File: 0, Page: i}
		if _, _, err := st.Fetch(addr); err != nil { // the first fetch maps the file
			t.Fatal(err)
		}
		allocs = append(allocs, testing.AllocsPerRun(50, func() {
			if _, _, err := st.Fetch(addr); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] > 1 || allocs[0] != allocs[1] {
		t.Errorf("Fetch allocates %v times for 8 rows and %v for 64, want 1 and equal", allocs[0], allocs[1])
	}
}

// BenchmarkStoreFetch60D times one warm fetch of a landsat-shaped page:
// 8 rows of 60 dimensions.
func BenchmarkStoreFetch60D(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	addr := disk.PageAddr{File: 0, Page: 0}
	if err := st.Put(at(addr, flatVecPage(8, 60))); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.Fetch(addr); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoadDataParentContainers loads `pmjoin -save` containers written
// before vector and series pages moved to the flat layout: the raw-dataset
// records kept their kinds and bytes, so old files still load bit-equal.
func TestLoadDataParentContainers(t *testing.T) {
	cases := []struct {
		hex  string
		want Data
	}{
		{
			"504d4a50010004003c0000000fc3197e0200000003000000000000000000f83f00000000000002c000000000000000000300000000000000000000800100000000000000ffffffffffffef7f",
			Data{Kind: disk.Vectors, Vectors: [][]float64{{1.5, -2.25, 0}, {math.Copysign(0, -1), 5e-324, math.MaxFloat64}}},
		},
		{
			"504d4a500100050024000000c1b709a304000000000000000000d03f000000000000f0bf000000000000f07f0000000000000c40",
			Data{Kind: disk.Series, Series: []float64{0.25, -1, math.Inf(1), 3.5}},
		},
		{
			"504d4a50010006000c000000a920f6d9080000004143475454474341",
			Data{Kind: disk.Strings, String: []byte("ACGTTGCA")},
		},
	}
	dir := t.TempDir()
	for i, tc := range cases {
		rec, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("%s/old%d.pmj", dir, i)
		if err := os.WriteFile(path, rec, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadData(path)
		if err != nil {
			t.Fatalf("LoadData(%v container): %v", tc.want.Kind, err)
		}
		if !eqData(got, tc.want) {
			t.Errorf("LoadData = %+v, want bit-equal %+v", got, tc.want)
		}
		// The container is canonical: today's encoder writes the same bytes.
		if again, err := encodeData(tc.want); err != nil || string(again) != string(rec) {
			t.Errorf("encodeData(%v) = %x (err %v), want the saved bytes %x", tc.want.Kind, again, err, rec)
		}
	}
}
