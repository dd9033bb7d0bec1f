// Package pool is the worker pool behind every goroutine the program runs
// (the pmlint rawgo rule allows no other spawn site), and the Group through
// which a call hands it tasks.
package pool

import (
	"math"
	"slices"
	"sync"
)

// Pool is a fixed set of workers. A worker runs the oldest task of the
// first cap, in order of arrival, with tasks queued and room for one more.
type Pool struct {
	mu      sync.Mutex
	idle    sync.Cond // workers waiting for a task
	caps    []*limit  // the caps with tasks queued
	free    *Group    // Run's tasks, uncapped
	closed  bool
	workers int
	done    sync.WaitGroup
}

// limit caps the tasks of a group and its siblings in flight, on workers
// and waiters, and holds their queue, its high water and their waiters.
type limit struct {
	n, active, highWater, waiters int
	queue                         []entry // queue[head:] is queued, oldest first
	head                          int
	// waiting is broadcast when a group's last task ends, when a task is
	// queued on a group whose waiter has none, and when a task ends whose
	// room in the cap its runner does not take again.
	waiting sync.Cond
}

type entry struct {
	g    *Group
	task func()
}

// New starts a pool of n workers (n < 1 is clamped to 1).
func New(n int) *Pool {
	p := &Pool{workers: max(n, 1)}
	p.idle.L = &p.mu
	p.free = p.Group(math.MaxInt)
	p.done.Add(p.workers)
	for range p.workers {
		go p.work() // the one sanctioned spawn site (see rawgo in LINTING.md)
	}
	return p
}

// Workers returns the number of workers.
func (p *Pool) Workers() int { return p.workers }

// Run queues a task that only Close waits for.
func (p *Pool) Run(task func()) { p.free.Go(task) }

// Close returns once every queued task has run and every worker exited.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.idle.Broadcast()
	p.done.Wait()
}

func (p *Pool) work() {
	defer p.done.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	var last *limit
	for {
		i := slices.IndexFunc(p.caps, func(l *limit) bool { return l.active < l.n })
		if last != nil && last.waiters > 0 && (i < 0 || p.caps[i] != last) {
			last.waiting.Broadcast()
		}
		last = nil
		if i >= 0 {
			last = p.caps[i]
			p.run(last, 0)
		} else if p.closed && len(p.caps) == 0 {
			return
		} else {
			p.idle.Wait()
		}
	}
}

// run takes l's i-th queued task and runs it with p.mu released. The
// queue's array is reused: once half of it is taken, the rest moves to its
// front.
func (p *Pool) run(l *limit, i int) {
	e := l.queue[l.head+i]
	copy(l.queue[l.head+1:l.head+i+1], l.queue[l.head:l.head+i])
	l.queue[l.head] = entry{}
	if l.head++; 2*l.head >= len(l.queue) {
		n := copy(l.queue, l.queue[l.head:])
		clear(l.queue[n:])
		l.queue, l.head = l.queue[:n], 0
	}
	if len(l.queue) == 0 {
		p.caps = slices.DeleteFunc(p.caps, func(c *limit) bool { return c == l })
	}
	e.g.queued--
	e.g.running++
	l.active++
	p.mu.Unlock()
	e.task()
	p.mu.Lock()
	l.active--
	if e.g.running--; e.g.running == 0 && e.g.queued == 0 && e.g.waiting {
		l.waiting.Broadcast()
	}
}

// Group is a set of tasks on a pool, capped in flight together with its
// siblings'. Wait runs the group's queued tasks on the caller as the cap
// allows, and blocks only while no task of it may start and started ones
// run; it takes no other group's task, so a task may wait on a group of its
// own on a pool of any size. One goroutine at a time waits on a group,
// never a task of it. The nil *Group runs each task inline in Go.
type Group struct {
	p               *Pool
	lim             *limit
	queued, running int
	waiting         bool
}

// Group returns a group of p's tasks that runs at most n at a time, or the
// nil group when p is nil or n < 2.
func (p *Pool) Group(n int) *Group {
	if p == nil || n < 2 {
		return nil
	}
	l := &limit{n: n}
	l.waiting.L = &p.mu
	return &Group{p: p, lim: l}
}

// Sibling returns a new group sharing g's cap and queue.
func (g *Group) Sibling() *Group {
	if g == nil {
		return nil
	}
	return &Group{p: g.p, lim: g.lim}
}

// Go queues task as one of g's. It never blocks, so a task may queue more.
// It panics once the pool is closed: dropping or racing in late work would
// break a caller's promise that its work is done when it returns.
func (g *Group) Go(task func()) {
	if g == nil {
		task()
		return
	}
	p, l := g.p, g.lim
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		panic("pool: task queued after Close")
	}
	if len(l.queue) == 0 {
		p.caps = append(p.caps, l)
	}
	l.queue = append(l.queue, entry{g, task})
	l.highWater = max(l.highWater, len(l.queue)-l.head)
	g.queued++
	if l.active < l.n {
		p.idle.Signal()
	}
	if g.waiting {
		l.waiting.Broadcast()
	}
}

// Wait returns once every task queued on g has run; g may then be reused.
func (g *Group) Wait() {
	if g == nil {
		return
	}
	p, l := g.p, g.lim
	p.mu.Lock()
	defer p.mu.Unlock()
	for g.queued > 0 || g.running > 0 {
		if g.queued == 0 || l.active >= l.n {
			g.waiting = true
			l.waiters++
			l.waiting.Wait()
			l.waiters--
			g.waiting = false
			continue
		}
		p.run(l, slices.IndexFunc(l.queue[l.head:], func(e entry) bool { return e.g == g }))
		if g.queued == 0 && len(p.caps) > 0 {
			// The room this task leaves is another waiter's or a worker's.
			if l.waiters > 0 {
				l.waiting.Broadcast()
			}
			p.idle.Signal()
		}
	}
}

// HighWater returns the most tasks of g and its siblings queued at once.
func (g *Group) HighWater() int {
	if g == nil {
		return 0
	}
	g.p.mu.Lock()
	defer g.p.mu.Unlock()
	return g.lim.highWater
}
