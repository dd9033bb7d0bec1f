// Package sflight is a bounded single-flight memo: Cache.Get returns a
// key's value, runs the fill of a missing key once however many callers ask
// for it at the same time, and keeps finished values up to a weight of Max,
// evicting the least recently used.
//
// The API layer keeps two memos of it, over expensive deterministic work:
// the System's prediction matrices and the clustered plans built on them,
// which joins and explains share. A matrix or plan is a pure function of its
// key, so which caller's fill ran is unobservable in the value; the flight
// only removes the redundant builds of concurrent cold starts.
package sflight

import (
	"context"
	"errors"
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
	weight   int
}

// Cache memoizes fill results by key. The zero value keeps no finished
// value (it only collapses concurrent fills); set Max before first use. A
// Cache is safe for concurrent use and must not be copied after first use.
type Cache[K comparable, V any] struct {
	// Max bounds the summed weight of the finished values kept, each
	// weighing Weight(value), or 1 when Weight is nil. An entry still in
	// flight is never evicted and does not count against it; a value
	// heavier than Max is returned but not kept.
	Max    int
	Weight func(V) int

	mu           sync.Mutex
	entries      map[K]*entry[V]
	kept         int    // summed weight of the finished entries
	tick         uint64 // counts uses; an entry's used is the tick of its last
	hits, misses int64
}

// Get returns key's value. A finished entry answers at once: a hit. Any
// other caller is a miss: it waits for the fill in flight under key, or, if
// there is none, runs fill itself. A failed fill is not kept. Its waiters
// get its error, except a context error while their own ctx is live: that
// cancellation was the filler's, so they fill again.
//
// fill runs without the cache's lock held, so it may Get another key;
// getting its own key from inside fill deadlocks.
func (c *Cache[K, V]) Get(ctx context.Context, key K, fill func() (V, error)) (v V, hit bool, err error) {
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
		return e.val, true, nil
	}
	c.misses++
	for ok {
		c.mu.Unlock()
		<-e.done
		if e.err == nil || ctx.Err() != nil ||
			!errors.Is(e.err, context.Canceled) && !errors.Is(e.err, context.DeadlineExceeded) {
			return e.val, false, e.err
		}
		c.mu.Lock()
		e, ok = c.entries[key]
	}
	e = &entry[V]{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	e.val, e.err = fill()

	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, key)
	} else {
		e.finished, e.weight = true, 1
		if c.Weight != nil {
			e.weight = c.Weight(e.val)
		}
		c.tick++
		e.used = c.tick
		c.kept += e.weight
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.done)
	return e.val, false, e.err
}

// evictLocked drops the least recently used finished entries until they
// weigh at most Max.
func (c *Cache[K, V]) evictLocked() {
	for c.kept > max(c.Max, 0) {
		var oldest K
		least := uint64(math.MaxUint64)
		for k, e := range c.entries {
			if e.finished && e.used < least {
				oldest, least = k, e.used
			}
		}
		c.kept -= c.entries[oldest].weight
		delete(c.entries, oldest)
	}
}

// Stats returns the hits and misses Get has counted.
func (c *Cache[K, V]) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
