package disk

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

func TestSessionColdHeads(t *testing.T) {
	d := newTestDisk()
	f := d.CreateFile()
	mustAppend(t, d, f, 4)

	// Warm another session's head on the file.
	warm := d.NewSession()
	if _, err := warm.Read(PageAddr{File: f, Page: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Read(PageAddr{File: f, Page: 1}); err != nil {
		t.Fatal(err)
	}

	// A fresh session starts cold: its read of page 2 is a seek even
	// though the other session's head sits at page 1 (its read would
	// stream).
	s := d.NewSession()
	if _, err := s.Read(PageAddr{File: f, Page: 2}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Reads != 1 || st.Seeks != 1 || st.Sequential != 0 {
		t.Fatalf("session stats after first read = %+v, want 1 read, 1 seek", st)
	}
}

func TestSessionStatsMatchSoloDisk(t *testing.T) {
	// The same access sequence must cost the same through a session over a
	// busy disk as through a solo session over a fresh one: a session's
	// account is a pure function of its own accesses.
	access := []int{0, 1, 2, 9, 10, 3, 0}

	fresh := newTestDisk()
	fs := fresh.CreateFile()
	mustAppend(t, fresh, fs, 12)
	solo := fresh.NewSession()
	for _, p := range access {
		if _, err := solo.Read(PageAddr{File: fs, Page: p}); err != nil {
			t.Fatal(err)
		}
	}

	shared := newTestDisk()
	fd := shared.CreateFile()
	mustAppend(t, shared, fd, 12)
	// Run unrelated traffic through another session first.
	other := shared.NewSession()
	for _, p := range []int{5, 11, 7} {
		if _, err := other.Read(PageAddr{File: fd, Page: p}); err != nil {
			t.Fatal(err)
		}
	}
	sess := shared.NewSession()
	for _, p := range access {
		if _, err := sess.Read(PageAddr{File: fd, Page: p}); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := sess.Stats(), solo.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("session stats %+v, solo session stats %+v", got, want)
	}
	if got, want := shared.Model().Cost(sess.Stats()), fresh.Model().Cost(solo.Stats()); got != want {
		t.Fatalf("session cost %g, solo cost %g", got, want)
	}
}

func TestSessionWriteToMissingPage(t *testing.T) {
	d := newTestDisk()
	s := d.NewSession()
	f := s.CreateFile()
	mustAppendOwn(t, s, f, 3)
	if err := s.Write(PageAddr{File: f, Page: 3}, Page{}); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("write to missing page: err = %v, want ErrNoSuchPage", err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("failed write charged %+v", st)
	}
}

func TestConcurrentSessionsIndependentStats(t *testing.T) {
	d := newTestDisk()
	f := d.CreateFile()
	mustAppend(t, d, f, 32)

	// Run several sessions over one disk concurrently; each must report
	// exactly the cost of its own access pattern in a solo session over a
	// fresh disk.
	fresh := newTestDisk()
	sf := fresh.CreateFile()
	mustAppend(t, fresh, sf, 32)
	solo := fresh.NewSession()
	for p := 0; p < 32; p++ {
		if _, err := solo.Read(PageAddr{File: sf, Page: p}); err != nil {
			t.Fatal(err)
		}
	}
	want := solo.Stats()

	const sessions = 8
	var wg sync.WaitGroup
	got := make([]Stats, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := d.NewSession()
			for p := 0; p < 32; p++ {
				if _, err := s.Read(PageAddr{File: f, Page: p}); err != nil {
					t.Error(err)
					return
				}
			}
			got[i] = s.Stats()
		}()
	}
	wg.Wait()
	for i, st := range got {
		if !reflect.DeepEqual(st, want) {
			t.Fatalf("session %d stats %+v, want %+v", i, st, want)
		}
	}
}

// Session writes must categorize sequential writes like sequential reads
// (WriteSequential parity), and the seek observer must see every random
// access with its direction.
func TestSessionWriteSequentialAndSeekObserver(t *testing.T) {
	d := New(DefaultModel())
	s := d.NewSession()
	f := s.CreateFile()
	mustAppendOwn(t, s, f, 4)
	type seek struct {
		addr  PageAddr
		write bool
	}
	var seen []seek
	s.SetOnSeek(func(a PageAddr, w bool) { seen = append(seen, seek{a, w}) })
	for i := 0; i < 3; i++ {
		if err := s.Write(PageAddr{File: f, Page: i}, Page{}); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if _, err := s.Read(PageAddr{File: f, Page: 0}); err != nil { // backward: seek
		t.Fatalf("read: %v", err)
	}
	st := s.Stats()
	if st.Writes != 3 || st.WriteSeeks != 1 || st.WriteSequential != 2 {
		t.Fatalf("writes=%d seeks=%d sequential=%d, want 3/1/2", st.Writes, st.WriteSeeks, st.WriteSequential)
	}
	want := []seek{{PageAddr{File: f, Page: 0}, true}, {PageAddr{File: f, Page: 0}, false}}
	if len(seen) != len(want) || seen[0] != want[0] || seen[1] != want[1] {
		t.Fatalf("observed seeks %v, want %v", seen, want)
	}
}
