package sflight

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// unfilled is the fill of a Get that must be a hit.
func unfilled(t *testing.T) func() (int, error) {
	return func() (int, error) {
		t.Error("a kept key was filled again")
		return 0, nil
	}
}

// TestDoSequential: a finished value answers the next Get of its key, which
// is a hit and runs no fill.
func TestDoSequential(t *testing.T) {
	c := Cache[string, int]{Max: 4}
	calls := 0
	fill := func(v int) func() (int, error) {
		return func() (int, error) { calls++; return v, nil }
	}
	v, filled, err := c.Get("k", fill(42))
	if v != 42 || !filled || err != nil {
		t.Fatalf("Get = (%d, %v, %v), want (42, true, nil)", v, filled, err)
	}
	v, filled, err = c.Get("k", fill(7))
	if v != 42 || filled || err != nil {
		t.Fatalf("second Get = (%d, %v, %v), want (42, false, nil)", v, filled, err)
	}
	if calls != 1 {
		t.Fatalf("fill ran %d times, want 1", calls)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("Stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
}

// TestDoError: a failed fill is not kept, so the next Get fills again.
func TestDoError(t *testing.T) {
	c := Cache[int, string]{Max: 4}
	boom := errors.New("boom")
	v, filled, err := c.Get(1, func() (string, error) { return "", boom })
	if v != "" || !filled || !errors.Is(err, boom) {
		t.Fatalf("Get = (%q, %v, %v), want (\"\", true, boom)", v, filled, err)
	}
	v, filled, err = c.Get(1, func() (string, error) { return "ok", nil })
	if v != "ok" || !filled || err != nil {
		t.Fatalf("Get after a failed fill = (%q, %v, %v), want (\"ok\", true, nil)", v, filled, err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("Stats = %d hits, %d misses; want 0, 2", hits, misses)
	}
}

// TestDoConcurrent: 16 callers of one key that arrive while its fill is in
// flight share that one fill: exactly one reports filled, all see its value,
// and every caller is a miss.
func TestDoConcurrent(t *testing.T) {
	c := Cache[string, int64]{Max: 4}
	var execs, fillers atomic.Int64
	release := make(chan struct{})
	inFlight := make(chan struct{})

	const callers = 16
	var wg sync.WaitGroup
	results := make([]int64, callers)
	get := func(i int) {
		defer wg.Done()
		v, filled, err := c.Get("hot", func() (int64, error) {
			close(inFlight)
			<-release // hold the flight open until every caller joined it
			return execs.Add(1), nil
		})
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
		if filled {
			fillers.Add(1)
		}
		results[i] = v
	}
	wg.Add(1)
	go get(0)
	<-inFlight
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go get(i)
	}
	// Every caller has counted its miss once it has found the entry in
	// flight, before it blocks on it.
	for {
		if _, misses := c.Stats(); misses == callers {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if execs.Load() != 1 || fillers.Load() != 1 {
		t.Fatalf("%d fills, %d callers report filled; want 1, 1", execs.Load(), fillers.Load())
	}
	for i, v := range results {
		if v != 1 {
			t.Fatalf("caller %d saw %d, want the one fill's 1", i, v)
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != callers {
		t.Fatalf("Stats = %d hits, %d misses; want 0, %d", hits, misses, callers)
	}
}

// TestDoDistinctKeysDoNotBlock: a fill may Get another key of its cache.
func TestDoDistinctKeysDoNotBlock(t *testing.T) {
	c := Cache[int, int]{Max: 4}
	v, _, err := c.Get(1, func() (int, error) {
		inner, _, err := c.Get(2, func() (int, error) { return 2, nil })
		return inner + 1, err
	})
	if v != 3 || err != nil {
		t.Fatalf("nested Get = (%d, %v), want (3, nil)", v, err)
	}
	if v, filled, _ := c.Get(2, unfilled(t)); v != 2 || filled {
		t.Fatalf("inner key = (%d, %v), want (2, false): kept", v, filled)
	}
}

// TestCacheEvictsLeastRecentlyUsed: past Max finished values the least
// recently used one goes, and an entry in flight is never evicted.
func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := Cache[int, int]{Max: 2}
	get := func(k int) bool {
		_, filled, err := c.Get(k, func() (int, error) { return k, nil })
		if err != nil {
			t.Fatal(err)
		}
		return filled
	}
	get(1)
	get(2)
	get(1) // 2 is now the least recently used
	get(3) // evicts 2
	if get(1) || get(3) {
		t.Fatal("a recently used key was evicted")
	}
	if !get(2) {
		t.Fatal("the least recently used key was kept")
	}

	// A fill that fills other keys past Max keeps its own entry in flight.
	_, _, err := c.Get(10, func() (int, error) {
		for k := 11; k < 15; k++ {
			get(k)
		}
		if _, filled, _ := c.Get(14, unfilled(t)); filled {
			t.Error("the newest key was evicted")
		}
		return 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if get(10) {
		t.Fatal("the entry filled last was evicted")
	}
}
