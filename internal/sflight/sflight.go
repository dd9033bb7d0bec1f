// Package sflight is a bounded single-flight memo: Cache.Get returns a
// key's value, runs the fill of a missing key once however many callers ask
// for it at the same time, and keeps at most Max finished values, evicting
// the least recently used.
//
// The API layer keeps two memos of it, over expensive deterministic work:
// the System's prediction matrices and the Server's Explain plans. A matrix
// or plan is a pure function of its key, so which caller's fill ran is
// unobservable in the value; the flight only removes the redundant builds
// of concurrent cold starts.
package sflight

import (
	"math"
	"sync"
)

// entry is one key's value: in flight until done is closed, finished after.
type entry[V any] struct {
	done     chan struct{}
	val      V
	err      error
	finished bool   // under Cache.mu: the fill returned a value
	used     uint64 // Cache.tick at the entry's last use
}

// Cache memoizes fill results by key. The zero value keeps no finished
// value (it only collapses concurrent fills); set Max before first use. A
// Cache is safe for concurrent use and must not be copied after first use.
type Cache[K comparable, V any] struct {
	// Max bounds the finished values kept. An entry still in flight is
	// never evicted and does not count against it.
	Max int

	mu           sync.Mutex
	entries      map[K]*entry[V]
	kept         int    // finished entries in entries
	tick         uint64 // counts uses; an entry's used is the tick of its last
	hits, misses int64
}

// Get returns key's value. A finished entry answers at once (a hit). Any
// other caller is a miss: it waits for the fill in flight under key, or, if
// there is none, runs fill itself, and filled reports that it did. A failed
// fill is not kept: its waiters get its error, and the next Get fills again.
//
// fill runs without the cache's lock held, so it may Get another key;
// getting its own key from inside fill deadlocks.
func (c *Cache[K, V]) Get(key K, fill func() (V, error)) (v V, filled bool, err error) {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[K]*entry[V])
	}
	e, ok := c.entries[key]
	if ok && e.finished {
		c.hits++
		c.tick++
		e.used = c.tick
		c.mu.Unlock()
		return e.val, false, nil
	}
	c.misses++
	if ok {
		c.mu.Unlock()
		<-e.done
		return e.val, false, e.err
	}
	e = &entry[V]{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	e.val, e.err = fill()

	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, key)
	} else {
		e.finished = true
		c.tick++
		e.used = c.tick
		c.kept++
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.done)
	return e.val, true, e.err
}

// evictLocked drops the least recently used finished entries until at most
// Max are kept.
func (c *Cache[K, V]) evictLocked() {
	for c.kept > max(c.Max, 0) {
		var oldest K
		least := uint64(math.MaxUint64)
		for k, e := range c.entries {
			if e.finished && e.used < least {
				oldest, least = k, e.used
			}
		}
		delete(c.entries, oldest)
		c.kept--
	}
}

// Stats returns the hits and misses Get has counted.
func (c *Cache[K, V]) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
