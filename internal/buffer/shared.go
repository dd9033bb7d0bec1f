package buffer

import (
	"container/list"
	"fmt"
	"sync"

	"pmjoin/internal/disk"
)

// SharedStats counts activity across every lock shard of a SharedPool.
type SharedStats struct {
	// Hits counts lookups that found the frame resident; Misses the rest.
	Hits   int64
	Misses int64
	// Published counts frames admitted into the pool.
	Published int64
	// Evictions counts frames displaced to make room.
	Evictions int64
	// OverCapacity counts admissions that found every evictable frame pinned
	// and grew past the shard's budget rather than drop a pinned frame (see
	// Publish). Bounded by the admission controller's frame budget.
	OverCapacity int64
	// Resident and Pinned are point-in-time gauges: frames currently held
	// and frames currently pinned by at least one run.
	Resident int64
	Pinned   int64
}

// sharedFrame is one resident page in a SharedPool shard, with the
// cross-run pin count that protects it from eviction.
type sharedFrame struct {
	page *disk.Page
	pins int
	elem *list.Element
}

// sharedShard is one lock shard: a mutex, its slice of the frame budget, and
// an LRU order over its frames.
type sharedShard struct {
	mu       sync.Mutex
	capacity int
	frames   map[disk.PageAddr]*sharedFrame
	order    *list.List // front = next eviction victim
	stats    SharedStats
}

// SharedPool is a concurrent page-frame cache shared across in-flight runs:
// the hot shared state a long-lived join service keeps between requests,
// where a per-run Pool is private and dies with its run. Frames are spread
// over power-of-two lock shards (per-shard mutexed frame maps with per-shard
// LRU), so concurrent runs contend only when they touch the same shard.
//
// Accounting contract: a SharedPool is OBSERVATIONAL with respect to the
// determinism contract. A run's Pool consults it on every miss and publishes
// what it reads, but the run still charges its private disk session exactly
// as a solo run would — per-request Reports stay pure functions of the
// request (see Pool.AttachShared). What the shared pool eliminates is
// duplicated work outside the simulated account: page-payload
// materialization happens once per shared residency instead of once per
// request, and under a future
// physical-disk backend the Lookup hit is where the real read would be
// skipped. SharedStats records the cross-request reuse.
//
// Pinned-frame safety: Pin marks a frame in use by some run; pinned frames
// are never evicted. When every evictable frame of a shard is pinned, Publish
// admits past the shard budget (counted as OverCapacity) rather than drop a
// pinned frame — the admission controller bounds total pins, which bounds the
// overflow.
type SharedPool struct {
	shards []sharedShard
	mask   uint64
}

// NewShared creates a shared pool of capacity frames spread over lockShards
// lock shards (rounded up to a power of two; <= 0 selects 16). Capacity must
// cover at least one frame per shard.
func NewShared(capacity, lockShards int) (*SharedPool, error) {
	if lockShards <= 0 {
		lockShards = 16
	}
	n := 1
	for n < lockShards {
		n <<= 1
	}
	if capacity < n {
		return nil, fmt.Errorf("buffer: shared capacity %d < %d lock shards", capacity, n)
	}
	sp := &SharedPool{shards: make([]sharedShard, n), mask: uint64(n - 1)}
	for i := range sp.shards {
		// Spread the budget; earlier shards absorb the remainder.
		per := capacity / n
		if i < capacity%n {
			per++
		}
		sp.shards[i].capacity = per
		sp.shards[i].frames = make(map[disk.PageAddr]*sharedFrame, per)
		sp.shards[i].order = list.New()
	}
	return sp, nil
}

// Capacity returns the total frame budget.
func (sp *SharedPool) Capacity() int {
	total := 0
	for i := range sp.shards {
		total += sp.shards[i].capacity
	}
	return total
}

// shard maps an address to its lock shard (Fibonacci hashing over the
// file/page pair).
func (sp *SharedPool) shard(addr disk.PageAddr) *sharedShard {
	h := uint64(addr.File)*0x9E3779B97F4A7C15 + uint64(addr.Page)*0xBF58476D1CE4E5B9
	h ^= h >> 29
	return &sp.shards[h&sp.mask]
}

// Lookup returns the resident page for addr, bumping its recency. A hit or
// miss is counted either way.
func (sp *SharedPool) Lookup(addr disk.PageAddr) (*disk.Page, bool) {
	s := sp.shard(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[addr]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	s.stats.Hits++
	s.order.MoveToBack(f.elem)
	return f.page, true
}

// Publish admits the page into the pool (a no-op if already resident),
// evicting the shard's least recently used unpinned frame when the shard is
// at capacity. When every frame is pinned the admission proceeds past the
// budget instead of dropping a pinned frame (counted as OverCapacity).
func (sp *SharedPool) Publish(addr disk.PageAddr, pg *disk.Page) {
	s := sp.shard(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishLocked(addr, pg)
}

// publishLocked inserts a frame (or bumps it, if resident) with the shard
// lock held and returns it.
func (s *sharedShard) publishLocked(addr disk.PageAddr, pg *disk.Page) *sharedFrame {
	if f, ok := s.frames[addr]; ok {
		s.order.MoveToBack(f.elem)
		return f
	}
	if len(s.frames) >= s.capacity {
		if !s.evictLocked() {
			s.stats.OverCapacity++
		}
	}
	f := &sharedFrame{page: pg}
	f.elem = s.order.PushBack(addr)
	s.frames[addr] = f
	s.stats.Published++
	return f
}

// evictLocked removes the shard's LRU unpinned frame, reporting whether one
// existed. Caller holds the shard lock.
func (s *sharedShard) evictLocked() bool {
	for e := s.order.Front(); e != nil; e = e.Next() {
		addr := e.Value.(disk.PageAddr)
		if s.frames[addr].pins > 0 {
			continue
		}
		s.order.Remove(e)
		delete(s.frames, addr)
		s.stats.Evictions++
		return true
	}
	return false
}

// Pin marks the frame in use by a run, protecting it from eviction; the page
// is admitted first if not resident (so a pin ledger entry always has a
// frame). Every Pin must be balanced by an Unpin.
func (sp *SharedPool) Pin(addr disk.PageAddr, pg *disk.Page) {
	s := sp.shard(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.publishLocked(addr, pg)
	f.pins++
}

// Unpin releases n pins on the frame. Unpinning a non-resident frame is a
// no-op (the pool never evicts pinned frames, so the entry exists unless the
// caller's ledger is off — Pool.Detach reconciles defensively).
func (sp *SharedPool) Unpin(addr disk.PageAddr, n int) {
	s := sp.shard(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.frames[addr]; ok {
		f.pins -= n
		if f.pins < 0 {
			f.pins = 0
		}
	}
}

// Stats returns the aggregated counters plus point-in-time residency gauges.
func (sp *SharedPool) Stats() SharedStats {
	var out SharedStats
	for i := range sp.shards {
		s := &sp.shards[i]
		s.mu.Lock()
		out.Hits += s.stats.Hits
		out.Misses += s.stats.Misses
		out.Published += s.stats.Published
		out.Evictions += s.stats.Evictions
		out.OverCapacity += s.stats.OverCapacity
		out.Resident += int64(len(s.frames))
		for _, f := range s.frames {
			if f.pins > 0 {
				out.Pinned++
			}
		}
		s.mu.Unlock()
	}
	return out
}
