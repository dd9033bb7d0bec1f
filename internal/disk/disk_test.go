package disk

import (
	"errors"
	"sync"
	"testing"
)

func newTestDisk() *Disk {
	return New(DefaultModel())
}

func mustAppend(t *testing.T, d *Disk, f FileID, n int) []PageAddr {
	t.Helper()
	addrs := make([]PageAddr, n)
	for i := 0; i < n; i++ {
		a, err := d.AppendPage(f, Page{IDs: []int{i}})
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		addrs[i] = a
	}
	return addrs
}

// mustAppendOwn appends n pages to the session's own file f.
func mustAppendOwn(t *testing.T, s *Session, f FileID, n int) []PageAddr {
	t.Helper()
	addrs := make([]PageAddr, n)
	for i := 0; i < n; i++ {
		a, err := s.AppendPage(f, Page{IDs: []int{i}})
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		addrs[i] = a
	}
	return addrs
}

func TestAppendAssignsSequentialAddresses(t *testing.T) {
	d := newTestDisk()
	f := d.CreateFile()
	addrs := mustAppend(t, d, f, 5)
	for i, a := range addrs {
		if a.File != f || a.Page != i {
			t.Fatalf("addr %d = %v", i, a)
		}
	}
	if d.NumPages(f) != 5 {
		t.Fatalf("NumPages = %d", d.NumPages(f))
	}
}

func TestAppendUnknownFile(t *testing.T) {
	d := newTestDisk()
	if _, err := d.AppendPage(FileID(99), Page{}); err == nil {
		t.Fatal("expected error for unknown file")
	}
}

func TestSequentialReadsChargeNoSeeks(t *testing.T) {
	d := newTestDisk()
	io := d.NewSession()
	f := d.CreateFile()
	mustAppend(t, d, f, 100)
	for i := 0; i < 100; i++ {
		if _, err := io.Read(PageAddr{File: f, Page: i}); err != nil {
			t.Fatal(err)
		}
	}
	s := io.Stats()
	if s.Reads != 100 {
		t.Fatalf("reads = %d", s.Reads)
	}
	if s.Seeks != 1 { // only the initial positioning
		t.Fatalf("seeks = %d, want 1", s.Seeks)
	}
	if s.Sequential != 99 {
		t.Fatalf("sequential = %d, want 99", s.Sequential)
	}
}

func TestBackwardReadChargesSeek(t *testing.T) {
	d := newTestDisk()
	io := d.NewSession()
	f := d.CreateFile()
	mustAppend(t, d, f, 10)
	io.Read(PageAddr{File: f, Page: 5})
	io.Read(PageAddr{File: f, Page: 3})
	s := io.Stats()
	if s.Seeks != 2 {
		t.Fatalf("seeks = %d, want 2 (initial + backward)", s.Seeks)
	}
}

func TestRereadSamePageChargesSeek(t *testing.T) {
	d := newTestDisk()
	io := d.NewSession()
	f := d.CreateFile()
	mustAppend(t, d, f, 3)
	io.Read(PageAddr{File: f, Page: 1})
	io.Read(PageAddr{File: f, Page: 1})
	if s := io.Stats(); s.Seeks != 2 {
		t.Fatalf("seeks = %d, want 2", s.Seeks)
	}
}

func TestSmallForwardGapStreams(t *testing.T) {
	d := newTestDisk()
	io := d.NewSession()
	f := d.CreateFile()
	mustAppend(t, d, f, 20)
	io.Read(PageAddr{File: f, Page: 0})
	io.Read(PageAddr{File: f, Page: 4}) // gap of 3 pages
	s := io.Stats()
	if s.Seeks != 1 {
		t.Fatalf("seeks = %d, want 1 (gap streamed)", s.Seeks)
	}
	if s.GapPages != 3 {
		t.Fatalf("gap pages = %d, want 3", s.GapPages)
	}
}

func TestLargeForwardGapSeeks(t *testing.T) {
	d := newTestDisk()
	io := d.NewSession()
	f := d.CreateFile()
	mustAppend(t, d, f, 200)
	io.Read(PageAddr{File: f, Page: 0})
	io.Read(PageAddr{File: f, Page: 150})
	s := io.Stats()
	if s.Seeks != 2 {
		t.Fatalf("seeks = %d, want 2", s.Seeks)
	}
	if s.GapPages != 0 {
		t.Fatalf("gap pages = %d, want 0", s.GapPages)
	}
}

func TestGapBreakEvenNeverStreamsPastSeekCost(t *testing.T) {
	// With seek 10ms and transfer 1ms, streaming a gap of more than 10
	// pages would cost more than seeking; the model must seek instead.
	m := Model{SeekTime: 10e-3, TransferTime: 1e-3, PageSize: 4096, Readahead: 64}
	d := New(m)
	io := d.NewSession()
	f := d.CreateFile()
	mustAppend(t, d, f, 100)
	io.Read(PageAddr{File: f, Page: 0})
	io.Read(PageAddr{File: f, Page: 12}) // gap 11 > 10
	s := io.Stats()
	if s.Seeks != 2 {
		t.Fatalf("seeks = %d, want 2 (gap 11 must not stream)", s.Seeks)
	}
	io.Read(PageAddr{File: f, Page: 22}) // gap 9 <= 10
	if s := io.Stats(); s.Seeks != 2 || s.GapPages != 9 {
		t.Fatalf("stats = %+v, want gap streamed", s)
	}
}

func TestPerFileHeadsAreIndependent(t *testing.T) {
	d := newTestDisk()
	io := d.NewSession()
	f1 := d.CreateFile()
	f2 := d.CreateFile()
	mustAppend(t, d, f1, 10)
	mustAppend(t, d, f2, 10)
	// Alternate between the two files, each sequentially.
	for i := 0; i < 10; i++ {
		io.Read(PageAddr{File: f1, Page: i})
		io.Read(PageAddr{File: f2, Page: i})
	}
	s := io.Stats()
	if s.Seeks != 2 { // one initial positioning per file
		t.Fatalf("seeks = %d, want 2", s.Seeks)
	}
}

func TestReadErrors(t *testing.T) {
	d := newTestDisk()
	io := d.NewSession()
	f := d.CreateFile()
	mustAppend(t, d, f, 2)
	cases := []PageAddr{
		{File: f, Page: -1},
		{File: f, Page: 2},
		{File: FileID(42), Page: 0},
	}
	for _, addr := range cases {
		if _, err := io.Read(addr); !errors.Is(err, ErrNoSuchPage) {
			t.Errorf("Read(%v) err = %v, want ErrNoSuchPage", addr, err)
		}
	}
}

func TestWriteStoresPayloadAndCharges(t *testing.T) {
	d := newTestDisk()
	cat := d.CreateFile()
	mustAppend(t, d, cat, 3)
	io := d.NewSession()
	f := io.CreateFile()
	if f >= 0 || f == cat {
		t.Fatalf("session file id %d, want a negative id no catalog file has", f)
	}
	addrs := mustAppendOwn(t, io, f, 3)
	if err := io.Write(addrs[1], Page{IDs: []int{42}}); err != nil {
		t.Fatal(err)
	}
	pg, err := io.Peek(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	if pg.IDs[0] != 42 || pg.Addr != addrs[1] {
		t.Fatalf("page = %+v", pg)
	}
	s := io.Stats()
	if s.Writes != 1 || s.WriteSeeks != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// The session's file is its own: the catalog and other sessions do not
	// see it.
	if d.NumPages(f) != 0 || io.NumPages(f) != 3 {
		t.Fatalf("catalog holds %d pages of the session's file, the session %d", d.NumPages(f), io.NumPages(f))
	}
	if _, err := d.NewSession().Peek(addrs[1]); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("another session peeked the page: err = %v", err)
	}
}

func TestWriteErrors(t *testing.T) {
	d := newTestDisk()
	cat := d.CreateFile()
	mustAppend(t, d, cat, 2)
	io := d.NewSession()
	f := io.CreateFile()
	if err := io.Write(PageAddr{File: f, Page: 0}, Page{}); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("err = %v", err)
	}
	// The catalog is read-only to a session.
	if err := io.Write(PageAddr{File: cat, Page: 0}, Page{}); err == nil {
		t.Fatal("a session wrote a catalog page")
	}
	if _, err := io.AppendPage(cat, Page{}); err == nil {
		t.Fatal("a session appended to a catalog file")
	}
	if d.NumPages(cat) != 2 || io.Stats() != (Stats{}) {
		t.Fatalf("failed writes changed the catalog (%d pages) or charged %+v", d.NumPages(cat), io.Stats())
	}
}

func TestPeekDoesNotCharge(t *testing.T) {
	d := newTestDisk()
	io := d.NewSession()
	f := d.CreateFile()
	addrs := mustAppend(t, d, f, 1)
	if _, err := io.Peek(addrs[0]); err != nil {
		t.Fatal(err)
	}
	if s := io.Stats(); s.Reads != 0 || s.Seeks != 0 {
		t.Fatalf("peek charged: %+v", s)
	}
	if _, err := io.Peek(PageAddr{File: f, Page: 7}); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("err = %v", err)
	}
}

func TestModelCost(t *testing.T) {
	m := Model{SeekTime: 10e-3, TransferTime: 1e-3}
	s := Stats{Reads: 100, Seeks: 5, GapPages: 20, Writes: 10, WriteSeeks: 2}
	got := m.Cost(s)
	want := 7*10e-3 + 130*1e-3
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("cost = %g, want %g", got, want)
	}
}

func TestDefaultModelFields(t *testing.T) {
	m := DefaultModel()
	if m.SeekTime != DefaultSeekTime || m.TransferTime != DefaultTransferTime ||
		m.PageSize != DefaultPageSize || m.Readahead != DefaultReadahead {
		t.Fatalf("unexpected defaults: %+v", m)
	}
}

func TestReadaheadNegativeDisables(t *testing.T) {
	m := Model{SeekTime: 10e-3, TransferTime: 1e-3, Readahead: -1}
	d := New(m)
	io := d.NewSession()
	f := d.CreateFile()
	for i := 0; i < 10; i++ {
		d.AppendPage(f, Page{})
	}
	io.Read(PageAddr{File: f, Page: 0})
	io.Read(PageAddr{File: f, Page: 2}) // gap 1: would stream with readahead
	if s := io.Stats(); s.Seeks != 2 {
		t.Fatalf("seeks = %d, want 2 with readahead disabled", s.Seeks)
	}
}

func TestDiskCostAccumulates(t *testing.T) {
	d := newTestDisk()
	io := d.NewSession()
	f := d.CreateFile()
	mustAppend(t, d, f, 10)
	if d.Model().Cost(io.Stats()) != 0 {
		t.Fatal("cost before reads should be 0")
	}
	io.Read(PageAddr{File: f, Page: 0})
	want := DefaultSeekTime + DefaultTransferTime
	if got := d.Model().Cost(io.Stats()); got != want {
		t.Fatalf("cost = %g, want %g", got, want)
	}
}

func TestConcurrentReads(t *testing.T) {
	d := newTestDisk()
	io := d.NewSession()
	f := d.CreateFile()
	mustAppend(t, d, f, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				if _, err := io.Read(PageAddr{File: f, Page: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := io.Stats(); s.Reads != 8*64 {
		t.Fatalf("reads = %d, want %d", s.Reads, 8*64)
	}
}

// Regression: sequential writes must be categorized symmetrically with
// sequential reads. Before the fix, only WriteSeeks existed, so Writes -
// WriteSeeks was unexplainable in the metrics tables.
func TestWriteSequentialCategorized(t *testing.T) {
	d := newTestDisk()
	io := d.NewSession()
	f := io.CreateFile()
	addrs := mustAppendOwn(t, io, f, 4)
	for _, a := range addrs {
		if err := io.Write(a, Page{}); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	s := io.Stats()
	if s.Writes != 4 || s.WriteSeeks != 1 || s.WriteSequential != 3 {
		t.Fatalf("writes=%d seeks=%d sequential=%d, want 4/1/3", s.Writes, s.WriteSeeks, s.WriteSequential)
	}
	if s.Writes != s.WriteSeeks+s.WriteSequential {
		t.Fatalf("write partition broken: %+v", s)
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{Reads: 5, Seeks: 2, Sequential: 3, GapPages: 1, Writes: 4, WriteSeeks: 1, WriteSequential: 3}
	b := Stats{Reads: 2, Seeks: 1, Sequential: 1, Writes: 1, WriteSeeks: 1}
	sum := a.Add(b)
	if got := sum.Sub(b); got != a {
		t.Fatalf("Add/Sub not inverse: %+v", got)
	}
	if got := a.Sub(a); got != (Stats{}) {
		t.Fatalf("a-a = %+v", got)
	}
}
