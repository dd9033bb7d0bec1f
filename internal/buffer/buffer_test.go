package buffer

import (
	"errors"
	"math/rand"
	"testing"

	"pmjoin/internal/disk"
)

// newSessionWithFile returns a fresh session over a new disk holding one
// file of the given number of pages.
func newSessionWithFile(t *testing.T, pages int) (*disk.Session, disk.FileID) {
	t.Helper()
	d := disk.New(disk.DefaultModel())
	f := d.CreateFile()
	for i := 0; i < pages; i++ {
		if _, err := d.AppendPage(f, disk.Page{IDs: []int{i}}); err != nil {
			t.Fatal(err)
		}
	}
	return d.NewSession(), f
}

func TestNewPoolRejectsZeroCapacity(t *testing.T) {
	d := disk.New(disk.DefaultModel()).NewSession()
	if _, err := NewPool(d, 0, LRU); err == nil {
		t.Fatal("expected error")
	}
}

func TestGetMissThenHit(t *testing.T) {
	d, f := newSessionWithFile(t, 4)
	p, _ := NewPool(d, 2, LRU)
	addr := disk.PageAddr{File: f, Page: 0}
	pg, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if pg.IDs[0] != 0 {
		t.Fatalf("page = %+v", pg)
	}
	if _, err := p.Get(addr); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if d.Stats().Reads != 1 {
		t.Fatalf("disk reads = %d, want 1", d.Stats().Reads)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	d, f := newSessionWithFile(t, 4)
	p, _ := NewPool(d, 2, LRU)
	a0 := disk.PageAddr{File: f, Page: 0}
	a1 := disk.PageAddr{File: f, Page: 1}
	a2 := disk.PageAddr{File: f, Page: 2}
	p.Get(a0)
	p.Get(a1)
	p.Get(a0) // touch a0: a1 is now LRU
	p.Get(a2) // must evict a1
	if !p.Contains(a0) || p.Contains(a1) || !p.Contains(a2) {
		t.Fatalf("resident = %v", p.Resident())
	}
	if p.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", p.Stats().Evictions)
	}
}

func TestFIFOEvictsOldest(t *testing.T) {
	d, f := newSessionWithFile(t, 4)
	p, _ := NewPool(d, 2, FIFO)
	a0 := disk.PageAddr{File: f, Page: 0}
	a1 := disk.PageAddr{File: f, Page: 1}
	a2 := disk.PageAddr{File: f, Page: 2}
	p.Get(a0)
	p.Get(a1)
	p.Get(a0) // touching must NOT matter under FIFO
	p.Get(a2) // must evict a0 (oldest)
	if p.Contains(a0) || !p.Contains(a1) || !p.Contains(a2) {
		t.Fatalf("resident = %v", p.Resident())
	}
}

func TestPinnedPagesAreNotEvicted(t *testing.T) {
	d, f := newSessionWithFile(t, 5)
	p, _ := NewPool(d, 2, LRU)
	a0 := disk.PageAddr{File: f, Page: 0}
	if _, err := p.GetPinned(a0); err != nil {
		t.Fatal(err)
	}
	p.Get(disk.PageAddr{File: f, Page: 1})
	p.Get(disk.PageAddr{File: f, Page: 2}) // must evict page 1, not pinned page 0
	if !p.Contains(a0) {
		t.Fatal("pinned page was evicted")
	}
}

func TestAllPinnedOverflow(t *testing.T) {
	d, f := newSessionWithFile(t, 5)
	p, _ := NewPool(d, 2, LRU)
	p.GetPinned(disk.PageAddr{File: f, Page: 0})
	p.GetPinned(disk.PageAddr{File: f, Page: 1})
	_, err := p.Get(disk.PageAddr{File: f, Page: 2})
	if !errors.Is(err, ErrBufferFull) {
		t.Fatalf("err = %v, want ErrBufferFull", err)
	}
}

func TestUnpinAllowsEviction(t *testing.T) {
	d, f := newSessionWithFile(t, 5)
	p, _ := NewPool(d, 2, LRU)
	a0 := disk.PageAddr{File: f, Page: 0}
	p.GetPinned(a0)
	p.GetPinned(disk.PageAddr{File: f, Page: 1})
	if err := p.Unpin(a0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(disk.PageAddr{File: f, Page: 2}); err != nil {
		t.Fatalf("get after unpin: %v", err)
	}
	if p.Contains(a0) {
		t.Fatal("unpinned page should have been the victim")
	}
}

func TestDoublePinNeedsDoubleUnpin(t *testing.T) {
	d, f := newSessionWithFile(t, 5)
	p, _ := NewPool(d, 2, LRU)
	a0 := disk.PageAddr{File: f, Page: 0}
	p.GetPinned(a0)
	p.GetPinned(a0)
	p.Unpin(a0)
	p.Get(disk.PageAddr{File: f, Page: 1})
	if _, err := p.Get(disk.PageAddr{File: f, Page: 2}); err != nil {
		t.Fatal(err)
	}
	if !p.Contains(a0) {
		t.Fatal("page with remaining pin was evicted")
	}
}

// TestPinnedFrames counts frames, not pins, and is a pure read.
func TestPinnedFrames(t *testing.T) {
	d, f := newSessionWithFile(t, 5)
	p, _ := NewPool(d, 3, LRU)
	a0, a1 := disk.PageAddr{File: f, Page: 0}, disk.PageAddr{File: f, Page: 1}
	for _, a := range []disk.PageAddr{a0, a0, a1} {
		if _, err := p.GetPinned(a); err != nil {
			t.Fatal(err)
		}
	}
	p.Get(disk.PageAddr{File: f, Page: 2})
	before := p.Stats()
	if n := p.PinnedFrames(); n != 2 {
		t.Fatalf("PinnedFrames = %d, want 2", n)
	}
	if p.Stats() != before || p.Len() != 3 {
		t.Fatal("PinnedFrames changed the pool")
	}
	p.Unpin(a0)
	p.Unpin(a1)
	if n := p.PinnedFrames(); n != 1 {
		t.Fatalf("after one unpin each: PinnedFrames = %d, want 1", n)
	}
}

func TestUnpinErrors(t *testing.T) {
	d, f := newSessionWithFile(t, 3)
	p, _ := NewPool(d, 2, LRU)
	a0 := disk.PageAddr{File: f, Page: 0}
	if err := p.Unpin(a0); err == nil {
		t.Fatal("unpin of non-resident page must fail")
	}
	p.Get(a0)
	if err := p.Unpin(a0); err == nil {
		t.Fatal("unpin of unpinned page must fail")
	}
}

func TestUnpinAll(t *testing.T) {
	d, f := newSessionWithFile(t, 4)
	p, _ := NewPool(d, 3, LRU)
	p.GetPinned(disk.PageAddr{File: f, Page: 0})
	p.GetPinned(disk.PageAddr{File: f, Page: 1})
	p.UnpinAll()
	p.Get(disk.PageAddr{File: f, Page: 2})
	if _, err := p.Get(disk.PageAddr{File: f, Page: 3}); err != nil {
		t.Fatalf("eviction after UnpinAll failed: %v", err)
	}
}

func TestEvictSpecificPage(t *testing.T) {
	d, f := newSessionWithFile(t, 3)
	p, _ := NewPool(d, 3, LRU)
	a0 := disk.PageAddr{File: f, Page: 0}
	p.Get(a0)
	if !p.Evict(a0) {
		t.Fatal("evict of resident unpinned page failed")
	}
	if p.Evict(a0) {
		t.Fatal("evict of absent page succeeded")
	}
	p.GetPinned(a0)
	if p.Evict(a0) {
		t.Fatal("evict of pinned page succeeded")
	}
}

func TestFlushEmptiesPool(t *testing.T) {
	d, f := newSessionWithFile(t, 3)
	p, _ := NewPool(d, 3, LRU)
	for i := 0; i < 3; i++ {
		p.Get(disk.PageAddr{File: f, Page: i})
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("flush of unpinned pool: %v", err)
	}
	if p.Len() != 0 {
		t.Fatalf("len = %d after flush", p.Len())
	}
	if p.Stats().Evictions != 3 {
		t.Fatalf("evictions = %d", p.Stats().Evictions)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" {
		t.Fatal("policy names")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy name empty")
	}
}

// TestLRUMatchesReferenceModel drives the pool with a random access pattern
// and cross-checks residency and miss counts against a simple reference LRU.
func TestLRUMatchesReferenceModel(t *testing.T) {
	const pages = 32
	const capacity = 8
	const accesses = 5000
	d, f := newSessionWithFile(t, pages)
	p, _ := NewPool(d, capacity, LRU)
	rng := rand.New(rand.NewSource(7))

	// Reference: slice ordered least- to most-recently used.
	var ref []int
	misses := 0
	for i := 0; i < accesses; i++ {
		pg := rng.Intn(pages)
		if _, err := p.Get(disk.PageAddr{File: f, Page: pg}); err != nil {
			t.Fatal(err)
		}
		found := -1
		for k, v := range ref {
			if v == pg {
				found = k
				break
			}
		}
		if found >= 0 {
			ref = append(ref[:found], ref[found+1:]...)
		} else {
			misses++
			if len(ref) == capacity {
				ref = ref[1:]
			}
		}
		ref = append(ref, pg)

		if int64(misses) != p.Stats().Misses {
			t.Fatalf("access %d: misses %d, reference %d", i, p.Stats().Misses, misses)
		}
	}
	// Final residency must match exactly, in order.
	got := p.Resident()
	if len(got) != len(ref) {
		t.Fatalf("resident %d pages, reference %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i].Page != ref[i] {
			t.Fatalf("resident[%d] = %v, reference %d", i, got[i], ref[i])
		}
	}
}

// TestPoolNeverExceedsCapacity fuzzes mixed pin/unpin/get traffic.
func TestPoolNeverExceedsCapacity(t *testing.T) {
	const pages = 64
	d, f := newSessionWithFile(t, pages)
	for _, capacity := range []int{1, 3, 8} {
		p, _ := NewPool(d, capacity, LRU)
		rng := rand.New(rand.NewSource(int64(capacity)))
		pinned := map[int]int{}
		for i := 0; i < 2000; i++ {
			pg := rng.Intn(pages)
			switch rng.Intn(4) {
			case 0:
				if len(pinned) < capacity {
					if _, err := p.GetPinned(disk.PageAddr{File: f, Page: pg}); err != nil {
						t.Fatal(err)
					}
					pinned[pg]++
				}
			case 1:
				if pinned[pg] > 0 {
					if err := p.Unpin(disk.PageAddr{File: f, Page: pg}); err != nil {
						t.Fatal(err)
					}
					pinned[pg]--
					if pinned[pg] == 0 {
						delete(pinned, pg)
					}
				}
			default:
				_, err := p.Get(disk.PageAddr{File: f, Page: pg})
				if err != nil && !errors.Is(err, ErrBufferFull) {
					t.Fatal(err)
				}
			}
			if p.Len() > capacity {
				t.Fatalf("pool holds %d pages, capacity %d", p.Len(), capacity)
			}
		}
	}
}

// failingSource fails reads of one address and delegates the rest.
type failingSource struct {
	d    Source
	fail disk.PageAddr
}

var errInjected = errors.New("injected read failure")

func (s failingSource) Read(a disk.PageAddr) (*disk.Page, error) {
	if a == s.fail {
		return nil, errInjected
	}
	return s.d.Read(a)
}

// Regression for the read-before-evict bug: a miss whose Source.Read fails
// must leave the pool exactly as it was — no resident page dropped, no
// eviction charged for I/O that never happened.
func TestFailedReadDoesNotEvict(t *testing.T) {
	d, f := newSessionWithFile(t, 3)
	bad := disk.PageAddr{File: f, Page: 99} // does not exist on disk
	p, err := NewPool(failingSource{d: d, fail: bad}, 2, LRU)
	if err != nil {
		t.Fatal(err)
	}
	a0 := disk.PageAddr{File: f, Page: 0}
	a1 := disk.PageAddr{File: f, Page: 1}
	p.Get(a0)
	p.Get(a1) // pool now full
	if _, err := p.Get(bad); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if !p.Contains(a0) || !p.Contains(a1) {
		t.Fatalf("resident set damaged by failed read: %v", p.Resident())
	}
	if ev := p.Stats().Evictions; ev != 0 {
		t.Fatalf("evictions = %d after failed read, want 0", ev)
	}
	// The pool must still work: a successful miss now evicts normally.
	if _, err := p.Get(disk.PageAddr{File: f, Page: 2}); err != nil {
		t.Fatalf("recovery get: %v", err)
	}
	if ev := p.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d after recovery get, want 1", ev)
	}
}

// A fully pinned pool must reject a miss with ErrBufferFull before touching
// the disk: no read may be charged for a page that cannot be cached.
func TestFullyPinnedMissChargesNoRead(t *testing.T) {
	d, f := newSessionWithFile(t, 3)
	p, _ := NewPool(d, 2, LRU)
	p.GetPinned(disk.PageAddr{File: f, Page: 0})
	p.GetPinned(disk.PageAddr{File: f, Page: 1})
	before := d.Stats().Reads
	if _, err := p.Get(disk.PageAddr{File: f, Page: 2}); !errors.Is(err, ErrBufferFull) {
		t.Fatalf("err = %v, want ErrBufferFull", err)
	}
	if after := d.Stats().Reads; after != before {
		t.Fatalf("reads %d -> %d across ErrBufferFull miss", before, after)
	}
}

// Regression for the Flush pin bug: pinned frames must survive a Flush and
// be reported, instead of being silently discarded.
func TestFlushKeepsPinnedFrames(t *testing.T) {
	d, f := newSessionWithFile(t, 3)
	p, _ := NewPool(d, 3, LRU)
	pinned := disk.PageAddr{File: f, Page: 0}
	p.GetPinned(pinned)
	p.Get(disk.PageAddr{File: f, Page: 1})
	p.Get(disk.PageAddr{File: f, Page: 2})
	err := p.Flush()
	if err == nil {
		t.Fatal("flush with a pinned frame must return an error")
	}
	if !p.Contains(pinned) {
		t.Fatal("pinned frame discarded by Flush")
	}
	if p.Len() != 1 {
		t.Fatalf("len = %d after flush, want 1 (the pinned frame)", p.Len())
	}
	if ev := p.Stats().Evictions; ev != 2 {
		t.Fatalf("evictions = %d, want 2 (only unpinned frames)", ev)
	}
	// The surviving pin still unpins cleanly — the ledger is intact.
	if err := p.Unpin(pinned); err != nil {
		t.Fatalf("unpin after flush: %v", err)
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("flush after unpin: %v", err)
	}
}

// FIFO must evict in arrival order regardless of hits: a hit must not
// refresh the victim ordering the way LRU's MoveToBack does.
func TestFIFOHitDoesNotRefresh(t *testing.T) {
	d, f := newSessionWithFile(t, 3)
	p, _ := NewPool(d, 2, FIFO)
	a0 := disk.PageAddr{File: f, Page: 0}
	a1 := disk.PageAddr{File: f, Page: 1}
	p.Get(a0)
	p.Get(a1)
	p.Get(a0) // hit; under LRU this would move a0 behind a1
	p.Get(disk.PageAddr{File: f, Page: 2})
	if p.Contains(a0) {
		t.Fatal("FIFO evicted the newer page instead of the oldest")
	}
	if !p.Contains(a1) {
		t.Fatal("FIFO dropped the wrong frame")
	}

	// Same access pattern under LRU evicts a1: the policies must diverge.
	q, _ := NewPool(d, 2, LRU)
	q.Get(a0)
	q.Get(a1)
	q.Get(a0)
	q.Get(disk.PageAddr{File: f, Page: 2})
	if !q.Contains(a0) || q.Contains(a1) {
		t.Fatal("LRU did not refresh the hit page")
	}
}

// Eviction must skip pinned frames (oldest first) and only fail with
// ErrBufferFull once every frame is pinned.
func TestEvictionSkipsPinnedFrames(t *testing.T) {
	d, f := newSessionWithFile(t, 4)
	p, _ := NewPool(d, 3, LRU)
	a0 := disk.PageAddr{File: f, Page: 0}
	a1 := disk.PageAddr{File: f, Page: 1}
	a2 := disk.PageAddr{File: f, Page: 2}
	p.GetPinned(a0) // eviction-order front, but pinned
	p.GetPinned(a1)
	p.Get(a2)
	if _, err := p.Get(disk.PageAddr{File: f, Page: 3}); err != nil {
		t.Fatalf("get: %v", err)
	}
	if p.Contains(a2) {
		t.Fatal("eviction took a pinned-adjacent page instead of the unpinned one")
	}
	if !p.Contains(a0) || !p.Contains(a1) {
		t.Fatal("eviction removed a pinned frame")
	}
	// Now all three frames are pinned or freshly read; pin the newcomer too
	// and the next miss must fail.
	p.GetPinned(disk.PageAddr{File: f, Page: 3})
	p.GetPinned(a0) // second pin on a0, exercises pinned>1
	if _, err := p.Get(disk.PageAddr{File: f, Page: 2}); !errors.Is(err, ErrBufferFull) {
		t.Fatalf("err = %v, want ErrBufferFull", err)
	}
}

// The eviction observer must see every frame leaving the pool, in
// deterministic eviction order.
func TestOnEvictObserver(t *testing.T) {
	d, f := newSessionWithFile(t, 3)
	p, _ := NewPool(d, 2, LRU)
	var seen []disk.PageAddr
	p.SetOnEvict(func(a disk.PageAddr) { seen = append(seen, a) })
	a0 := disk.PageAddr{File: f, Page: 0}
	a1 := disk.PageAddr{File: f, Page: 1}
	p.Get(a0)
	p.Get(a1)
	p.Get(disk.PageAddr{File: f, Page: 2}) // evicts a0
	p.Evict(a1)
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	want := []disk.PageAddr{a0, a1, {File: f, Page: 2}}
	if len(seen) != len(want) {
		t.Fatalf("observer saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("observer saw %v, want %v", seen, want)
		}
	}
}

// The wait-free miss path must not regress: a full pool with only the front
// frame pinned still evicts in one pass.
func TestVictimSkipsFrontPin(t *testing.T) {
	d, f := newSessionWithFile(t, 4)
	p, _ := NewPool(d, 2, FIFO)
	a0 := disk.PageAddr{File: f, Page: 0}
	p.GetPinned(a0)
	p.Get(disk.PageAddr{File: f, Page: 1})
	if _, err := p.Get(disk.PageAddr{File: f, Page: 2}); err != nil {
		t.Fatalf("get: %v", err)
	}
	if !p.Contains(a0) {
		t.Fatal("pinned front frame evicted")
	}
}
