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
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Add returns the field-wise sum s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Hits:      s.Hits + o.Hits,
		Misses:    s.Misses + o.Misses,
		Evictions: s.Evictions + o.Evictions,
	}
}

// Sub returns the field-wise difference s - o, for computing deltas between
// two snapshots of one pool's counters.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:      s.Hits - o.Hits,
		Misses:    s.Misses - o.Misses,
		Evictions: s.Evictions - o.Evictions,
	}
}

type frame struct {
	addr   disk.PageAddr
	page   *disk.Page
	pinned int
	// prev and next link the frame into the pool's eviction order; a frame
	// on the pool's free list is linked through next alone.
	prev, next *frame
}

// Source is the read path beneath a Pool: the shared disk.Disk itself, or a
// per-run disk.Session whose charges stay out of other runs' accounts.
type Source interface {
	Read(addr disk.PageAddr) (*disk.Page, error)
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
	// setFrames is PinSet's scratch: the frame of each page of the set.
	setFrames []*frame
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

// Len returns the number of resident pages.
func (p *Pool) Len() int { return len(p.frames) }

// PinnedFrames returns the number of resident frames with a pin held. It
// reads only: no access is counted and nothing is evicted.
func (p *Pool) PinnedFrames() int {
	n := 0
	for f := p.order.next; f != &p.order; f = f.next {
		if f.pinned > 0 {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the pool statistics.
func (p *Pool) Stats() Stats { return p.stats }

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
		p.stats.Hits++
		if p.policy == LRU {
			p.touch(f)
		}
		if pin {
			f.pinned++
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
// resident or read here. On error the pages pinned so far stay pinned.
func (p *Pool) PinSet(set []disk.PageAddr) error {
	fs := p.setFrames[:0]
	for _, a := range set {
		f := p.frames[a]
		if f != nil {
			p.stats.Hits++
			f.pinned++
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
	return nil
}

// UnpinAll drops every pin. Used between join phases.
func (p *Pool) UnpinAll() {
	for f := p.order.next; f != &p.order; f = f.next {
		f.pinned = 0
	}
}

// Flush evicts every unpinned frame, charging evictions. Pinned frames stay
// resident — dropping them would break the pin invariant GetPinned/Unpin
// enforce — and their presence is reported as an error so the caller learns
// its pin ledger is not empty at a phase boundary.
func (p *Pool) Flush() error {
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

// victim returns the next evictable frame per the policy, or nil when every
// resident frame is pinned.
func (p *Pool) victim() *frame {
	for f := p.order.next; f != &p.order; f = f.next {
		if f.pinned == 0 {
			return f
		}
	}
	return nil
}

// removeFrame drops f from the pool — unlinks it, forgets it and puts it on
// the free list — charging one eviction and notifying the observer.
func (p *Pool) removeFrame(f *frame) {
	addr := f.addr
	f.prev.next, f.next.prev = f.next, f.prev
	delete(p.frames, addr)
	*f = frame{next: p.free}
	p.free = f
	p.stats.Evictions++
	if p.onEvict != nil {
		p.onEvict(addr)
	}
}
