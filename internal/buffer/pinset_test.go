package buffer

import (
	"slices"
	"testing"

	"pmjoin/internal/disk"
)

func addr(f disk.FileID, page int) disk.PageAddr {
	return disk.PageAddr{File: f, Page: page}
}

// fill loads the given pages in order into a fresh pool of the given
// capacity, so the first page is the LRU front.
func fill(t *testing.T, capacity int, policy Policy, pages ...int) (*Pool, *disk.Session, disk.FileID) {
	t.Helper()
	d, f := newSessionWithFile(t, 10)
	p, err := NewPool(d, capacity, policy)
	if err != nil {
		t.Fatal(err)
	}
	for _, pg := range pages {
		if _, err := p.Get(addr(f, pg)); err != nil {
			t.Fatal(err)
		}
	}
	return p, d, f
}

// TestPinSetKeepsItsOwnResidents is the Lemma 4 regression: in a full pool,
// a set whose resident page sorts after one of its misses must not evict
// that resident to make room for the miss. Pinning in ascending order does
// (page 2's read evicts page 5, the LRU front, which page 5's own pin then
// reads back); PinSet pins page 5 first, so page 2's read evicts page 1.
func TestPinSetKeepsItsOwnResidents(t *testing.T) {
	for _, policy := range []Policy{LRU, FIFO} {
		p, d, f := fill(t, 3, policy, 5, 1, 9)
		before, reads := p.Stats(), d.Stats().Reads
		if err := p.PinSet([]disk.PageAddr{addr(f, 2), addr(f, 5)}); err != nil {
			t.Fatal(err)
		}
		s := p.Stats().Sub(before)
		if s.Misses != 1 || s.Hits != 1 || s.Evictions != 1 || d.Stats().Reads-reads != 1 {
			t.Errorf("%v: PinSet charged %+v and %d reads, want one miss, one hit, one eviction, one read",
				policy, s, d.Stats().Reads-reads)
		}
		if p.Contains(addr(f, 1)) || !p.Contains(addr(f, 5)) || !p.Contains(addr(f, 2)) {
			t.Errorf("%v: resident %v, want page 1 evicted and pages 2 and 5 kept", policy, p.Resident())
		}
		p.UnpinAll()
	}
}

// TestPinSetRecencyIsSetOrder pins the order PinSet leaves behind under LRU:
// the set, in set order, behind everything else — whether its pages were
// resident or read by the call itself.
func TestPinSetRecencyIsSetOrder(t *testing.T) {
	set := func(f disk.FileID) []disk.PageAddr { return []disk.PageAddr{addr(f, 2), addr(f, 3), addr(f, 7)} }
	plain, _, f := fill(t, 5, LRU, 7, 4, 3, 6)
	if err := plain.PinSet(set(f)); err != nil {
		t.Fatal(err)
	}
	want := []disk.PageAddr{addr(f, 4), addr(f, 6), addr(f, 2), addr(f, 3), addr(f, 7)}
	if got := plain.Resident(); !slices.Equal(got, want) {
		t.Errorf("resident %v, want %v", got, want)
	}

}

// TestPinSetFullOfPins fails cleanly when the set cannot fit beside the
// pages already pinned.
func TestPinSetFullOfPins(t *testing.T) {
	p, _, f := fill(t, 2, LRU)
	if _, err := p.GetPinned(addr(f, 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.PinSet([]disk.PageAddr{addr(f, 1), addr(f, 2)}); err != ErrBufferFull {
		t.Fatalf("PinSet over a full pool = %v, want ErrBufferFull", err)
	}
}

// TestPinnedCountsNothing: reading a pinned page neither counts an access
// nor moves it in the recency order, and an unpinned page is an error.
func TestPinnedCountsNothing(t *testing.T) {
	p, _, f := fill(t, 3, LRU, 0, 1)
	if err := p.PinSet([]disk.PageAddr{addr(f, 0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(addr(f, 1)); err != nil {
		t.Fatal(err)
	}
	before, order := p.Stats(), p.Resident()
	pg, err := p.Pinned(addr(f, 0))
	if err != nil || pg.IDs[0] != 0 {
		t.Fatalf("Pinned = %v, %v", pg, err)
	}
	if p.Stats() != before || !slices.Equal(p.Resident(), order) {
		t.Errorf("Pinned changed the pool: stats %+v → %+v, order %v → %v", before, p.Stats(), order, p.Resident())
	}
	if _, err := p.Pinned(addr(f, 1)); err == nil {
		t.Error("Pinned of an unpinned page did not fail")
	}
	if _, err := p.Pinned(addr(f, 5)); err == nil {
		t.Error("Pinned of a non-resident page did not fail")
	}
}
