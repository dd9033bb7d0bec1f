package sflight

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

var bg = context.Background()

// unfilled is the fill of a Get that must be a hit.
func unfilled(t *testing.T) func() (int, error) {
	return func() (int, error) {
		t.Error("a kept key was filled again")
		return 0, nil
	}
}

// TestGetSequential: a finished value answers the next Get of its key, which
// is a hit and runs no fill.
func TestGetSequential(t *testing.T) {
	c := Cache[string, int]{Max: 4}
	calls := 0
	fill := func(v int) func() (int, error) {
		return func() (int, error) { calls++; return v, nil }
	}
	v, hit, err := c.Get(bg, "k", fill(42))
	if v != 42 || hit || err != nil {
		t.Fatalf("Get = (%d, %v, %v), want (42, false, nil)", v, hit, err)
	}
	v, hit, err = c.Get(bg, "k", fill(7))
	if v != 42 || !hit || err != nil {
		t.Fatalf("second Get = (%d, %v, %v), want (42, true, nil)", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("fill ran %d times, want 1", calls)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("Stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
}

// TestGetError: a failed fill is not kept, so the next Get fills again.
func TestGetError(t *testing.T) {
	c := Cache[int, string]{Max: 4}
	boom := errors.New("boom")
	v, hit, err := c.Get(bg, 1, func() (string, error) { return "", boom })
	if v != "" || hit || !errors.Is(err, boom) {
		t.Fatalf("Get = (%q, %v, %v), want (\"\", false, boom)", v, hit, err)
	}
	v, hit, err = c.Get(bg, 1, func() (string, error) { return "ok", nil })
	if v != "ok" || hit || err != nil {
		t.Fatalf("Get after a failed fill = (%q, %v, %v), want (\"ok\", false, nil)", v, hit, err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("Stats = %d hits, %d misses; want 0, 2", hits, misses)
	}
}

// joinFlight starts Get(ctx, key, fill) on a goroutine and returns once the
// cache has counted its miss, so the call is waiting on the fill in flight.
// The channel reports the Get's error.
func joinFlight(c *Cache[string, int], ctx context.Context, key string, fill func() (int, error)) <-chan error {
	_, before := c.Stats()
	out := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, key, fill)
		out <- err
	}()
	for {
		if _, misses := c.Stats(); misses > before {
			return out
		}
		runtime.Gosched()
	}
}

// TestGetConcurrent: 16 callers of one key that arrive while its fill is in
// flight share that one fill: it runs once, all see its value, and every
// caller is a miss.
func TestGetConcurrent(t *testing.T) {
	c := Cache[string, int64]{Max: 4}
	var execs atomic.Int64
	release := make(chan struct{})
	inFlight := make(chan struct{})

	const callers = 16
	var wg sync.WaitGroup
	results := make([]int64, callers)
	get := func(i int) {
		defer wg.Done()
		v, hit, err := c.Get(bg, "hot", func() (int64, error) {
			close(inFlight)
			<-release // hold the flight open until every caller joined it
			return execs.Add(1), nil
		})
		if err != nil || hit {
			t.Errorf("caller %d: hit %v, err %v; want a miss", i, hit, err)
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

	if execs.Load() != 1 {
		t.Fatalf("%d fills, want 1", execs.Load())
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

// TestGetWaiterKeepsItsOwnContext: a fill that fails on its caller's
// cancellation does not fail a waiter whose own context is live: the waiter
// fills again. A waiter whose context is done gets the error, and so does a
// waiter of a fill that failed for any other reason.
func TestGetWaiterKeepsItsOwnContext(t *testing.T) {
	c := Cache[string, int]{Max: 4}
	release := make(chan struct{})
	inFlight := make(chan struct{})
	filler := make(chan error, 1)
	go func() {
		_, _, err := c.Get(bg, "hot", func() (int, error) {
			close(inFlight)
			<-release
			return 0, context.Canceled // the filler's own context, cancelled
		})
		filler <- err
	}()
	<-inFlight
	done, cancel := context.WithCancel(bg)
	cancel()
	dead := joinFlight(&c, done, "hot", unfilled(t))
	live := joinFlight(&c, bg, "hot", func() (int, error) { return 0, nil })
	close(release)
	if err := <-filler; !errors.Is(err, context.Canceled) {
		t.Fatalf("filler: %v, want its own context.Canceled", err)
	}
	if err := <-dead; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v, want context.Canceled", err)
	}
	if err := <-live; err != nil {
		t.Fatalf("live waiter inherited the filler's cancellation: %v", err)
	}
	if v, hit, _ := c.Get(bg, "hot", unfilled(t)); v != 0 || !hit {
		t.Fatal("the live waiter's fill was not kept")
	}

	// Another error is the key's, not a context's: every waiter gets it.
	boom := errors.New("boom")
	release, inFlight = make(chan struct{}), make(chan struct{})
	go func() {
		_, _, err := c.Get(bg, "cold", func() (int, error) {
			close(inFlight)
			<-release
			return 0, boom
		})
		filler <- err
	}()
	<-inFlight
	waiter := joinFlight(&c, bg, "cold", unfilled(t))
	close(release)
	if err := <-filler; !errors.Is(err, boom) {
		t.Fatalf("filler: %v, want boom", err)
	}
	if err := <-waiter; !errors.Is(err, boom) {
		t.Fatalf("waiter: %v, want the fill's boom", err)
	}
}

// TestGetDistinctKeysDoNotBlock: a fill may Get another key of its cache.
func TestGetDistinctKeysDoNotBlock(t *testing.T) {
	c := Cache[int, int]{Max: 4}
	v, _, err := c.Get(bg, 1, func() (int, error) {
		inner, _, err := c.Get(bg, 2, func() (int, error) { return 2, nil })
		return inner + 1, err
	})
	if v != 3 || err != nil {
		t.Fatalf("nested Get = (%d, %v), want (3, nil)", v, err)
	}
	if v, hit, _ := c.Get(bg, 2, unfilled(t)); v != 2 || !hit {
		t.Fatalf("inner key = (%d, %v), want (2, true): kept", v, hit)
	}
}

// TestCacheEvictsLeastRecentlyUsed: past Max finished values the least
// recently used one goes, and an entry in flight is never evicted.
func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := Cache[int, int]{Max: 2}
	get := func(k int) (filled bool) {
		_, hit, err := c.Get(bg, k, func() (int, error) { return k, nil })
		if err != nil {
			t.Fatal(err)
		}
		return !hit
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
	_, _, err := c.Get(bg, 10, func() (int, error) {
		for k := 11; k < 15; k++ {
			get(k)
		}
		if _, hit, _ := c.Get(bg, 14, unfilled(t)); !hit {
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

// TestCacheEvictsByWeight: with a Weight, Max bounds the kept values'
// summed weight, least recently used out first, and a value heavier than
// Max is returned but not kept.
func TestCacheEvictsByWeight(t *testing.T) {
	c := Cache[int, int]{Max: 10, Weight: func(v int) int { return v }}
	get := func(k int) (filled bool) {
		v, hit, err := c.Get(bg, k, func() (int, error) { return k, nil })
		if err != nil || v != k {
			t.Fatalf("Get(%d) = %d, %v", k, v, err)
		}
		return !hit
	}
	get(4)
	get(5)
	get(4) // 5 is now the least recently used
	get(3) // 12 > 10: evicts 5
	if get(4) || get(3) {
		t.Fatal("a recently used value was evicted")
	}
	if !get(5) {
		t.Fatal("the least recently used value was kept past the weight")
	}
	if !get(11) || !get(11) {
		t.Fatal("a value heavier than Max was kept")
	}
}
