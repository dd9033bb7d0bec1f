package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkerPoolRunsAllTasks(t *testing.T) {
	p := New(4)
	var n atomic.Int64
	for i := 0; i < 1000; i++ {
		p.Run(func() { n.Add(1) })
	}
	p.Close()
	if n.Load() != 1000 {
		t.Fatalf("ran %d tasks, want 1000", n.Load())
	}
}

func TestWorkerPoolClampsWorkers(t *testing.T) {
	p := New(0)
	defer p.Close()
	if p.Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", p.Workers())
	}
}

func TestWorkerPoolRecursiveSubmit(t *testing.T) {
	// A task submitting sub-tasks must not deadlock, even with one worker:
	// the queue is unbounded and Run never blocks.
	p := New(1)
	var n atomic.Int64
	done := make(chan struct{})
	p.Run(func() {
		for i := 0; i < 10; i++ {
			p.Run(func() {
				if n.Add(1) == 10 {
					close(done)
				}
			})
		}
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("recursive submission deadlocked")
	}
	p.Close()
}

func TestWorkerPoolCloseJoinsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		p := New(8)
		for k := 0; k < 100; k++ {
			p.Run(func() {})
		}
		p.Close()
	}
	// Allow exited goroutines to be reaped before counting.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines after Close: %d, started with %d", g, before)
	}
}

func TestWorkerPoolRunAfterClosePanics(t *testing.T) {
	p := New(1)
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Run after Close did not panic")
		}
	}()
	p.Run(func() {})
}

// TestGroupNestedWaitOneWorker: on a one-worker pool, a group whose tasks
// each wait on a sub-group of their own (a shard waiting on its comparison
// runs) finishes. The worker holds one task while its waits run the
// sub-groups' tasks themselves.
func TestGroupNestedWaitOneWorker(t *testing.T) {
	p := New(1)
	defer p.Close()
	var n atomic.Int64
	done := make(chan struct{})
	go func() {
		outer := p.Group(4)
		for range 6 {
			outer.Go(func() {
				inner := p.Group(4)
				for range 10 {
					inner.Go(func() { n.Add(1) })
				}
				inner.Wait()
			})
		}
		outer.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested waits deadlocked a one-worker pool")
	}
	if n.Load() != 60 {
		t.Fatalf("ran %d inner tasks, want 60", n.Load())
	}
}

// TestGroupCapsTasksInFlight: a group and its sibling, on a pool with more
// workers than their cap, never have more than the cap of their tasks
// running at once, whether their waiter helps or only workers run them, and
// every task runs, those queued by running tasks too.
func TestGroupCapsTasksInFlight(t *testing.T) {
	const limit, tasks = 3, 300
	p := New(8)
	defer p.Close()
	for _, wait := range []bool{false, true} {
		var inFlight, peak, ran atomic.Int64
		task := func() {
			n := inFlight.Add(1)
			for {
				m := peak.Load()
				if n <= m || peak.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			inFlight.Add(-1)
			ran.Add(1)
		}
		g := p.Group(limit)
		sib := g.Sibling()
		for i := range tasks * 2 / 3 {
			if i%2 == 0 {
				g.Go(task)
			} else {
				sib.Go(func() { task(); sib.Go(task) })
			}
		}
		if !wait {
			for deadline := time.Now().Add(10 * time.Second); ran.Load() < tasks && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
		}
		g.Wait()
		sib.Wait()
		if ran.Load() != tasks {
			t.Fatalf("wait %v: ran %d tasks, want %d", wait, ran.Load(), tasks)
		}
		if peak.Load() > limit {
			t.Fatalf("wait %v: %d tasks in flight, cap %d", wait, peak.Load(), limit)
		}
		if hw := g.HighWater(); hw < 1 || hw > tasks {
			t.Fatalf("wait %v: queue high water %d, want in [1, %d]", wait, hw, tasks)
		}
	}
}

// TestGroupInline: a nil pool, and a cap below 2, give the nil group, which
// runs each task in Go on the caller.
func TestGroupInline(t *testing.T) {
	p := New(2)
	defer p.Close()
	for _, g := range []*Group{(*Pool)(nil).Group(4), p.Group(1), p.Group(0)} {
		if g != nil {
			t.Fatalf("group %p, want nil", g)
		}
		ran := false
		g.Go(func() { ran = true })
		if !ran {
			t.Fatal("a nil group's Go did not run its task inline")
		}
		g.Wait()
		if g.Sibling() != nil || g.HighWater() != 0 {
			t.Fatal("a nil group's sibling or high water is not nil, 0")
		}
	}
}
