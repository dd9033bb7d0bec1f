// Package buffer implements a fixed-capacity page buffer with pluggable
// replacement policies (LRU by default, FIFO for ablation).
//
// The paper assumes a finite buffer of B pages with LRU replacement. All join
// executors route page access through a Pool so that buffer hits are free and
// misses are charged to the simulated disk.
package buffer

import (
	"errors"
	"fmt"

	"pmjoin/internal/disk"
)

// Policy selects the replacement policy of a Pool.
type Policy int

const (
	// LRU evicts the least recently used unpinned page.
	LRU Policy = iota
	// FIFO evicts the oldest resident unpinned page regardless of use.
	FIFO
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Stats counts buffer activity.
//
// Prefetched counts pages admitted through the Prefetch path, split from the
// Hits/Misses they pre-charge: a prefetch read increments Misses (the miss it
// replaces) and Prefetched; staging a resident page increments Hits (the hit
// the later pin would have counted) and Prefetched. The later claim counts
// nothing, so Hits/Misses/Evictions are identical with prefetch on or off and
// Prefetched alone records how much traffic moved to the prefetch path.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Prefetched int64
	// SharedHits counts misses whose page was resident in an attached
	// SharedPool (see AttachShared): reads another in-flight run had already
	// materialized. Purely observational — the miss is still charged to the
	// run's own session, so Hits/Misses (and the Report) are identical with
	// or without the shared pool. Always 0 when no shared pool is attached.
	SharedHits int64
}

// Add returns the field-wise sum s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Hits:       s.Hits + o.Hits,
		Misses:     s.Misses + o.Misses,
		Evictions:  s.Evictions + o.Evictions,
		Prefetched: s.Prefetched + o.Prefetched,
		SharedHits: s.SharedHits + o.SharedHits,
	}
}

// Sub returns the field-wise difference s - o, for computing deltas between
// two snapshots of one pool's counters.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:       s.Hits - o.Hits,
		Misses:     s.Misses - o.Misses,
		Evictions:  s.Evictions - o.Evictions,
		Prefetched: s.Prefetched - o.Prefetched,
		SharedHits: s.SharedHits - o.SharedHits,
	}
}

// HitRatio returns hits / (hits+misses), or 0 when no accesses happened.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type frame struct {
	addr   disk.PageAddr
	page   *disk.Page
	pinned int
	staged bool // admitted by Prefetch, not yet claimed or released
	// pending, when non-nil, is the in-flight background fetch whose result
	// this frame is waiting for (async prefetch). Invariant: a pending frame
	// is always staged, so the victim scan can never evict it; page is nil
	// until resolvePending fills it.
	pending *disk.PendingRead
	// prev and next link the frame into the pool's eviction order; a frame
	// on the pool's free list is linked through next alone.
	prev, next *frame
}

// Source is the read path beneath a Pool: the shared disk.Disk itself, or a
// per-run disk.Session whose charges stay out of other runs' accounts.
type Source interface {
	Read(addr disk.PageAddr) (*disk.Page, error)
}

// asyncSource is the optional Source extension (disk.Session) that splits a
// read into a synchronous logical charge and a background physical fetch.
// With a prefetch runner installed, Prefetch admissions go through it so
// staged reads overlap the coordinator's compute.
type asyncSource interface {
	ReadAsync(addr disk.PageAddr, run func(func())) (*disk.PendingRead, error)
}

// refetcher is the optional Source extension that repeats only the physical
// half of an already-charged read — the demand-path fallback after a failed
// background fetch (re-charging would double-count the access).
type refetcher interface {
	Refetch(addr disk.PageAddr) (*disk.Page, error)
}

// Pool is a buffer pool of a fixed number of page frames over one page
// source. It is not safe for concurrent use; join coordinators serialize
// all page traffic, matching the paper's setting (workers only compute over
// pages the coordinator already fetched).
type Pool struct {
	d        Source
	capacity int
	policy   Policy
	frames   map[disk.PageAddr]*frame
	// order is the sentinel of the circular eviction-order list: order.next
	// is the front (the next victim), order.prev the most recent frame.
	order frame
	// free holds removed frames for reuse, so steady-state misses allocate
	// nothing.
	free  *frame
	stats Stats
	// onEvict, when non-nil, observes every frame leaving the pool
	// (policy eviction, explicit Evict, Flush). It is a tracing hook (see
	// internal/metrics) and runs on the goroutine driving the pool.
	onEvict func(addr disk.PageAddr)
	// shared, when non-nil, is the service-wide concurrent frame cache this
	// run participates in (see AttachShared).
	shared *SharedPool
	// runner, when non-nil, dispatches prefetch reads' physical half to a
	// background reader (SetPrefetchRunner). Requires the source to be an
	// asyncSource; otherwise prefetch reads stay synchronous.
	runner func(func())
	// setFrames is PinSet's scratch: the frame of each page of the set.
	setFrames []*frame
}

// SetPrefetchRunner installs the background dispatcher for prefetch reads
// (typically a dedicated reader WorkerPool's submit function). Every
// subsequent Prefetch miss charges its logical I/O synchronously as before —
// identical counters, identical eviction order — but the physical fetch runs
// on the dispatcher, overlapping the coordinator's compute, and is awaited
// when the frame is claimed (or at ReleaseStaged/Flush). A nil run reverts
// to fully synchronous prefetch reads.
func (p *Pool) SetPrefetchRunner(run func(func())) { p.runner = run }

// AttachShared joins the pool to a service-wide SharedPool: every miss
// consults it (counting Stats.SharedHits) and publishes the page it read,
// and every local pin is mirrored as a shared pin so frames in use by this
// run are never evicted from the shared cache. The simulated charges are
// unchanged — the run's source is still read on every local miss, so its
// Report is bit-identical to a run without the shared pool. Call Detach
// when the run ends to release the mirrored pins; nil detaches immediately.
func (p *Pool) AttachShared(sp *SharedPool) {
	if sp == nil {
		p.Detach()
		return
	}
	p.shared = sp
}

// Detach releases every mirrored pin this pool still holds in the shared
// pool and disconnects from it. Safe to call with no shared pool attached,
// and idempotent — Engine.Run defers it so error paths (cancellation
// included) cannot leak shared pins that would pin frames forever.
func (p *Pool) Detach() {
	if p.shared == nil {
		return
	}
	for addr, f := range p.frames {
		if f.pinned > 0 {
			p.shared.Unpin(addr, f.pinned)
		}
	}
	p.shared = nil
}

// SetOnEvict installs the eviction observer; nil removes it. The callback
// must be cheap and must not call back into the pool.
func (p *Pool) SetOnEvict(fn func(addr disk.PageAddr)) { p.onEvict = fn }

// ErrBufferFull is returned when every frame is pinned and a miss occurs.
var ErrBufferFull = errors.New("buffer: all frames pinned")

// NewPool creates a pool of capacity pages over src using the given policy.
// Capacity must be at least 1.
func NewPool(src Source, capacity int, policy Policy) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity %d < 1", capacity)
	}
	p := &Pool{
		d:        src,
		capacity: capacity,
		policy:   policy,
		frames:   make(map[disk.PageAddr]*frame, capacity),
	}
	p.order.prev, p.order.next = &p.order, &p.order
	return p, nil
}

// Capacity returns the number of page frames.
func (p *Pool) Capacity() int { return p.capacity }

// Len returns the number of resident pages.
func (p *Pool) Len() int { return len(p.frames) }

// Contains reports whether the page is resident without touching recency.
func (p *Pool) Contains(addr disk.PageAddr) bool {
	_, ok := p.frames[addr]
	return ok
}

// Stats returns a snapshot of the pool statistics.
func (p *Pool) Stats() Stats { return p.stats }

// ResetStats zeroes the counters. Resident pages stay resident.
func (p *Pool) ResetStats() { p.stats = Stats{} }

// Get returns the page at addr, reading it from disk on a miss and evicting
// per the policy when the pool is full. The returned page is not pinned.
func (p *Pool) Get(addr disk.PageAddr) (*disk.Page, error) {
	return p.get(addr, false)
}

// GetPinned returns the page at addr and pins it; the caller must Unpin it.
// Pinned pages are never evicted.
func (p *Pool) GetPinned(addr disk.PageAddr) (*disk.Page, error) {
	return p.get(addr, true)
}

func (p *Pool) get(addr disk.PageAddr, pin bool) (*disk.Page, error) {
	if f, ok := p.frames[addr]; ok {
		if err := p.access(f); err != nil {
			return nil, err
		}
		if p.policy == LRU {
			p.touch(f)
		}
		if pin {
			p.pin(f)
		}
		return f.page, nil
	}
	f, err := p.load(addr, pin)
	if err != nil {
		return nil, err
	}
	return f.page, nil
}

// PinSet pins every page of set, a cluster's distinct pages in the order
// their reads are to be issued (ascending, for a sched.PageSet); the caller
// releases them with Unpin or UnpinAll. The pages already resident are
// pinned first and only then are the others read, so no read of the set can
// evict a page of the set that was resident when the call began: the set's
// misses are exactly its non-resident pages, read in set order (Lemma 4's
// reuse, realized). Under LRU the set is then touched in set order, so the
// recency order the call leaves behind does not depend on which pages were
// resident, staged by Prefetch or read here. On error the pages pinned so
// far stay pinned.
func (p *Pool) PinSet(set []disk.PageAddr) error {
	fs := p.setFrames[:0]
	for _, a := range set {
		f := p.frames[a]
		if f != nil {
			if err := p.access(f); err != nil {
				return err
			}
			p.pin(f)
			if p.policy == LRU {
				// Gather the pins at the back, so the reads below find
				// their victims at the front instead of scanning past them.
				p.touch(f)
			}
		}
		fs = append(fs, f)
	}
	for i, f := range fs {
		if f == nil {
			var err error
			if fs[i], err = p.load(set[i], true); err != nil {
				return err
			}
		}
	}
	if p.policy == LRU {
		for _, f := range fs {
			p.touch(f)
		}
	}
	p.setFrames = fs
	return nil
}

// Pinned returns a page the caller holds pinned. It counts no access and
// leaves the recency order alone: the pin already counted the access, and a
// pinned frame cannot be a victim, so reading it again changes nothing the
// policy sees. This keeps a cluster's buffer traffic exactly its PinSet
// call. A page that is not resident and pinned is an error.
func (p *Pool) Pinned(addr disk.PageAddr) (*disk.Page, error) {
	f, ok := p.frames[addr]
	if !ok || f.pinned == 0 {
		return nil, fmt.Errorf("buffer: page %v is not pinned", addr)
	}
	return f.page, nil
}

// access counts one access to a resident frame: a hit, or nothing for a
// staged frame. Staged frames are claimed here — the access they exist for,
// whose hit or miss Prefetch already charged — which is what keeps
// Hits/Misses identical with prefetch on or off. A claim that catches an
// in-flight background fetch waits for it (falling back to a demand read
// inside resolvePending); a resolution failure has already dropped the frame
// and undone the stage-time admission, so the error surfaces cleanly.
func (p *Pool) access(f *frame) error {
	if f.pending != nil {
		if err := p.resolvePending(f); err != nil {
			return err
		}
	}
	if f.staged {
		f.staged = false
	} else {
		p.stats.Hits++
	}
	return nil
}

// pin adds one pin to a resident frame, mirrored into the shared pool.
func (p *Pool) pin(f *frame) {
	f.pinned++
	if p.shared != nil {
		p.shared.Pin(f.addr, f.page)
	}
}

// load reads a non-resident page into a frame, evicting per the policy when
// the pool is full, and pins it if asked.
func (p *Pool) load(addr disk.PageAddr, pin bool) (*frame, error) {
	p.stats.Misses++
	// Pick the eviction victim before reading — so a fully pinned pool
	// fails with ErrBufferFull without charging any I/O — but remove it
	// only after the read succeeds: evicting first would let a failed read
	// (a bad page address, ErrNoSuchPage) permanently drop a resident page
	// and charge an eviction for I/O that never happened.
	var victim *frame
	if len(p.frames) >= p.capacity {
		if victim = p.victim(); victim == nil {
			return nil, ErrBufferFull
		}
	}
	if p.shared != nil {
		// A shared-resident page is a hit in the service-wide cache: another
		// run already materialized it. The session read below still happens —
		// the simulated charge keeps this run's Report a pure function of its
		// own access sequence — so the lookup only records the reuse (and
		// bumps the frame's shared recency).
		if _, ok := p.shared.Lookup(addr); ok {
			p.stats.SharedHits++
		}
	}
	pg, err := p.d.Read(addr)
	if err != nil {
		return nil, err
	}
	if victim != nil {
		p.removeFrame(victim)
	}
	f := p.admit(addr, pg)
	if pin {
		f.pinned++
	}
	if p.shared != nil {
		if pin {
			p.shared.Pin(addr, pg)
		} else {
			p.shared.Publish(addr, pg)
		}
	}
	return f, nil
}

// admit makes a new frame for addr the most recent in the eviction order.
func (p *Pool) admit(addr disk.PageAddr, pg *disk.Page) *frame {
	f := p.free
	if f != nil {
		p.free = f.next
	} else {
		f = new(frame)
	}
	*f = frame{addr: addr, page: pg}
	p.pushBack(f)
	p.frames[addr] = f
	return f
}

// pushBack links f in as the most recent frame.
func (p *Pool) pushBack(f *frame) {
	f.prev, f.next = p.order.prev, &p.order
	f.prev.next, p.order.prev = f, f
}

// touch makes a resident frame the most recent.
func (p *Pool) touch(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	p.pushBack(f)
}

// drop unlinks f, forgets it and puts it on the free list.
func (p *Pool) drop(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	delete(p.frames, f.addr)
	*f = frame{next: p.free}
	p.free = f
}

// Unpin releases one pin on the page. Unpinning a page that is not resident
// or not pinned is a programming error and returns a non-nil error.
func (p *Pool) Unpin(addr disk.PageAddr) error {
	f, ok := p.frames[addr]
	if !ok {
		return fmt.Errorf("buffer: unpin of non-resident page %v", addr)
	}
	if f.pinned == 0 {
		return fmt.Errorf("buffer: unpin of unpinned page %v", addr)
	}
	f.pinned--
	if p.shared != nil {
		p.shared.Unpin(addr, 1)
	}
	return nil
}

// UnpinAll drops every pin. Used between join phases.
func (p *Pool) UnpinAll() {
	for f := p.order.next; f != &p.order; f = f.next {
		if f.pinned > 0 && p.shared != nil {
			p.shared.Unpin(f.addr, f.pinned)
		}
		f.pinned = 0
	}
}

// Evict removes the page at addr from the pool if resident, unpinned and not
// staged. It reports whether the page was removed.
func (p *Pool) Evict(addr disk.PageAddr) bool {
	f, ok := p.frames[addr]
	if !ok || f.pinned > 0 || f.staged {
		return false
	}
	p.removeFrame(f)
	return true
}

// Flush evicts every unpinned frame, charging evictions. Staged frames are
// released first — Flush is a phase boundary, the point where unclaimed
// prefetches lose their protection — so they are evicted like any other
// unpinned frame. Pinned frames stay resident — dropping them would break the
// pin invariant GetPinned/Unpin enforce — and their presence is reported as
// an error so the caller learns its pin ledger is not empty at a phase
// boundary.
func (p *Pool) Flush() error {
	p.ReleaseStaged()
	pinned := 0
	for f := p.order.next; f != &p.order; {
		next := f.next
		if f.pinned > 0 {
			pinned++
		} else {
			p.removeFrame(f)
		}
		f = next
	}
	if pinned > 0 {
		return fmt.Errorf("buffer: flush with %d pinned frame(s); they remain resident", pinned)
	}
	return nil
}

// Prefetch stages the page at addr: it becomes resident (read from the source
// if needed) and protected from eviction until the next Get/GetPinned claims
// it or ReleaseStaged/Flush drops the protection. The access is pre-charged
// here — a resident page counts the hit the later claim would have counted, a
// read counts the miss — so the claim itself counts nothing (see Stats).
//
// Prefetch never displaces a pinned, staged, or currently-needed frame: when
// no evictable victim exists it returns (false, nil) without reading, the
// graceful-degradation contract — the caller simply stops prefetching and the
// deferred reads happen at demand time. A read error returns (false, err).
// Staging an already-staged page is a no-op counted as nothing.
func (p *Pool) Prefetch(addr disk.PageAddr) (bool, error) {
	if f, ok := p.frames[addr]; ok {
		if f.staged {
			return true, nil
		}
		p.stats.Hits++
		p.stats.Prefetched++
		if p.policy == LRU {
			p.touch(f)
		}
		f.staged = true
		return true, nil
	}
	var victim *frame
	if len(p.frames) >= p.capacity {
		if victim = p.victim(); victim == nil {
			return false, nil
		}
	}
	// Same charge order as get: the miss is counted once the read is
	// committed to, so a failed read leaves the same counters either path.
	p.stats.Misses++
	if p.shared != nil {
		if _, ok := p.shared.Lookup(addr); ok {
			p.stats.SharedHits++
		}
	}
	if p.runner != nil {
		if src, ok := p.d.(asyncSource); ok {
			// Async admission: the logical charge happens inside ReadAsync,
			// right here on the coordinator — same counters, same order as the
			// synchronous path — and only the physical fetch is dispatched. A
			// synchronous charge error (unknown page) fails exactly like a
			// failed sync read, with the miss kept. The victim leaves at stage
			// time, as it would after a sync read, so the eviction sequence is
			// identical; the shared publish waits for the bytes.
			pr, err := src.ReadAsync(addr, p.runner)
			if err != nil {
				return false, err
			}
			p.stats.Prefetched++
			if victim != nil {
				p.removeFrame(victim)
			}
			f := p.admit(addr, nil)
			f.staged, f.pending = true, pr
			return true, nil
		}
	}
	pg, err := p.d.Read(addr)
	if err != nil {
		return false, err
	}
	p.stats.Prefetched++
	if p.shared != nil {
		p.shared.Publish(addr, pg)
	}
	if victim != nil {
		p.removeFrame(victim)
	}
	p.admit(addr, pg).staged = true
	return true, nil
}

// resolvePending completes a frame's background fetch: it waits for the
// read, and on failure retries once through the uncharged demand path
// (Refetch — the logical charge already happened at stage time). If the page
// still cannot be produced the frame is removed and the stage-time admission
// undone — no eviction is charged and Prefetched is decremented, so the
// counters end exactly where a failed synchronous prefetch read would have
// left them — and the error is returned.
func (p *Pool) resolvePending(f *frame) error {
	pr := f.pending
	f.pending = nil
	pg, err := pr.Wait()
	if err != nil {
		if rf, ok := p.d.(refetcher); ok {
			pg, err = rf.Refetch(f.addr)
		}
	}
	if err != nil {
		p.drop(f)
		p.stats.Prefetched--
		return err
	}
	f.page = pg
	if p.shared != nil {
		p.shared.Publish(f.addr, pg)
	}
	return nil
}

// ReleaseStaged drops the eviction protection from every staged frame and
// returns how many were released. The frames stay resident; they are simply
// ordinary policy-evictable pages again. Callers invoke it at the cluster
// boundary to give back whatever the next cluster did not claim. In-flight
// background fetches are awaited first; one that fails even the demand
// retry is dropped with its frame and not counted — the read was speculative
// and nothing ever claimed it, so its failure is not a join error.
func (p *Pool) ReleaseStaged() int {
	// Collect from the order list, not the frames map: resolution can drop a
	// failed frame mid-walk, and the list walk keeps the release order
	// deterministic (recency order) besides.
	var staged []*frame
	for f := p.order.next; f != &p.order; f = f.next {
		if f.staged {
			staged = append(staged, f)
		}
	}
	n := 0
	for _, f := range staged {
		if f.pending != nil {
			if err := p.resolvePending(f); err != nil {
				continue
			}
		}
		f.staged = false
		n++
	}
	return n
}

// Staged returns the number of currently staged frames.
func (p *Pool) Staged() int {
	n := 0
	for _, f := range p.frames {
		if f.staged {
			n++
		}
	}
	return n
}

// victim returns the next evictable frame per the policy, or nil when every
// resident frame is pinned or staged.
func (p *Pool) victim() *frame {
	for f := p.order.next; f != &p.order; f = f.next {
		if f.pinned == 0 && !f.staged {
			return f
		}
	}
	return nil
}

// removeFrame drops f from the pool, charging one eviction and notifying the
// observer.
func (p *Pool) removeFrame(f *frame) {
	addr := f.addr
	p.drop(f)
	p.stats.Evictions++
	if p.onEvict != nil {
		p.onEvict(addr)
	}
}

// Resident returns the addresses of all resident pages in eviction order
// (front first). Intended for tests.
func (p *Pool) Resident() []disk.PageAddr {
	out := make([]disk.PageAddr, 0, len(p.frames))
	for f := p.order.next; f != &p.order; f = f.next {
		out = append(out, f.addr)
	}
	return out
}
