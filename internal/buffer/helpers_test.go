package buffer

import "pmjoin/internal/disk"

// Contains reports whether the page is resident without touching recency.
func (p *Pool) Contains(addr disk.PageAddr) bool {
	_, ok := p.frames[addr]
	return ok
}

// Evict removes the page at addr from the pool if resident and unpinned. It
// reports whether the page was removed.
func (p *Pool) Evict(addr disk.PageAddr) bool {
	f, ok := p.frames[addr]
	if !ok || f.pinned > 0 {
		return false
	}
	p.removeFrame(f)
	return true
}

// Resident returns the addresses of all resident pages in eviction order
// (front first).
func (p *Pool) Resident() []disk.PageAddr {
	out := make([]disk.PageAddr, 0, len(p.frames))
	for f := p.order.next; f != &p.order; f = f.next {
		out = append(out, f.addr)
	}
	return out
}
