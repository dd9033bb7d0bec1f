package pmjoin

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pmjoin/internal/metrics"
	"pmjoin/internal/sflight"
	"pmjoin/internal/shard"
)

// ErrOverloaded reports that the server refused a join at admission: either
// the waiter queue was full or the request waited past the queue deadline.
// Callers should surface it as backpressure (HTTP 429) and retry later;
// errors.Is(err, ErrOverloaded) matches both flavors.
var ErrOverloaded = errors.New("pmjoin: server overloaded")

// ServeOptions configures a long-lived Server. The zero value of every field
// selects its documented default; NewServer normalizes a copy.
type ServeOptions struct {
	// AdmitFrames is the admission budget: the total private buffer frames
	// (Options.BufferPages, times concurrent shard workers when sharded) that
	// admitted joins may hold at once (default 16 384). A single request
	// costing more than the whole budget is admitted alone rather than
	// rejected, so one big join cannot be starved by its own size.
	AdmitFrames int
	// QueueDepth bounds how many requests may wait for admission; arrivals
	// beyond it are rejected immediately with ErrOverloaded (default 64).
	QueueDepth int
	// QueueTimeout bounds how long a queued request waits before giving up
	// with ErrOverloaded (default 5s).
	QueueTimeout time.Duration
	// PlanCacheEntries bounds the Explain-plan cache (default 128 entries,
	// evicting the least recently used).
	PlanCacheEntries int
	// RecentJoins bounds the completed-request ring kept for introspection
	// (default 64).
	RecentJoins int
}

func (o ServeOptions) withDefaults() ServeOptions {
	if o.AdmitFrames <= 0 {
		o.AdmitFrames = 16384
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 5 * time.Second
	}
	if o.PlanCacheEntries <= 0 {
		o.PlanCacheEntries = 128
	}
	if o.RecentJoins <= 0 {
		o.RecentJoins = 64
	}
	return o
}

// JoinState is the lifecycle of one served join request.
type JoinState string

const (
	// StateQueued: waiting for admission.
	StateQueued JoinState = "queued"
	// StateRunning: admitted and executing.
	StateRunning JoinState = "running"
	// StateDone: completed successfully.
	StateDone JoinState = "done"
	// StateFailed: returned an error (including cancellation).
	StateFailed JoinState = "failed"
	// StateRejected: refused at admission (queue full or deadline).
	StateRejected JoinState = "rejected"
)

// JoinStatus is a snapshot of one served request, live or recent. Values are
// copies: mutating a returned JoinStatus affects nothing.
type JoinStatus struct {
	ID       int64
	Left     string // dataset names
	Right    string
	Method   string
	Epsilon  float64
	State    JoinState
	Frames   int // admission cost in buffer frames
	Start    time.Time
	Wall     time.Duration // zero until terminal
	Results  int64         // Report.Results when done
	Err      string        // terminal error text, "" on success
	Canceled bool          // the context was cancelled (State is failed)
}

// ServeStats is a point-in-time counter snapshot of a Server.
type ServeStats struct {
	// Admission outcomes.
	Admitted        int64 // requests that acquired budget (includes running)
	Rejected        int64 // refused: queue full
	DeadlineExpired int64 // refused: waited past QueueTimeout
	Completed       int64 // terminal successes
	Failed          int64 // terminal errors (cancellations included)
	// Instantaneous admission state.
	InUseFrames     int // budget currently held
	FramesHighWater int
	Queued          int // requests currently waiting
	QueueHighWater  int
	// Plan cache.
	PlanHits   int64
	PlanMisses int64
	// Shared always reads 0: the server keeps no frame cache across runs,
	// and each join reads through its own private buffer pool. The fields
	// stay for source compatibility with callers that read them.
	Shared struct{ Hits, Misses int64 }
	// FoldedRuns is the number of per-request metrics snapshots folded into
	// the cumulative service metrics (see Server.Metrics).
	FoldedRuns int64
}

// Server wraps a System for long-lived concurrent serving: it owns an
// admission controller that bounds the total private buffer frames in
// flight, an Explain-plan cache with single-flight population, and a request
// registry for introspection. cmd/pmjoind exposes it over HTTP via
// internal/joinsvc; it is equally usable in-process.
//
// The serving layer never touches the determinism contract: every admitted
// join's Report and Pairs are bit-identical to a solo System.Join with the
// same Options, because each join runs in its own disk session and pool.
type Server struct {
	sys *System
	opt ServeOptions

	admit *admitter

	// plans memoizes Explain plans, at most PlanCacheEntries of them, the
	// same memo as the System's matrices; its hits and misses are
	// ServeStats.PlanHits and PlanMisses.
	plans sflight.Cache[planKey, *Plan]

	reqMu     sync.Mutex
	nextID    int64
	active    map[int64]*JoinStatus
	recent    []JoinStatus // ring, newest at append side
	completed int64
	failed    int64
	folded    metrics.Metrics
}

// NewServer wraps sys for serving under opt (zero value = defaults). The
// Server holds no goroutines; Close is not needed.
func NewServer(sys *System, opt ServeOptions) (*Server, error) {
	if sys == nil {
		return nil, fmt.Errorf("pmjoin: NewServer requires a System")
	}
	opt = opt.withDefaults()
	return &Server{
		sys:    sys,
		opt:    opt,
		plans:  sflight.Cache[planKey, *Plan]{Max: opt.PlanCacheEntries},
		active: make(map[int64]*JoinStatus),
		admit: &admitter{
			budget:   opt.AdmitFrames,
			queueCap: opt.QueueDepth,
			timeout:  opt.QueueTimeout,
		},
	}, nil
}

// Options returns the normalized serving options.
func (sv *Server) Options() ServeOptions { return sv.opt }

// System returns the wrapped System.
func (sv *Server) System() *System { return sv.sys }

// admissionCost is the budget a request holds while running: its private
// pool frames, times the concurrent shard pools when sharded. opt must be
// validated (BufferPages and Sharding.Workers normalized).
func admissionCost(opt Options) int {
	if opt.Sharding.Shards > 0 {
		return opt.BufferPages * shard.Workers(opt.Sharding.Workers, opt.Sharding.Shards)
	}
	return opt.BufferPages
}

// Join runs one admitted join. It validates opt, waits for admission budget
// (up to QueueTimeout behind at most QueueDepth waiters), then executes
// System.JoinContext. On overload it returns an error matching
// ErrOverloaded without running. The run's metrics snapshot folds into the
// cumulative service metrics.
func (sv *Server) Join(ctx context.Context, a, b *Dataset, opt Options) (*Result, error) {
	if err := sv.sys.checkJoinable(a, b); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	cost := admissionCost(opt)
	st := sv.register(a, b, opt, cost)

	if err := sv.admit.acquire(ctx, cost); err != nil {
		sv.finish(st.ID, func(s *JoinStatus) {
			s.State = StateRejected
			s.Err = err.Error()
		})
		return nil, err
	}
	defer sv.admit.release(cost)
	sv.update(st.ID, func(s *JoinStatus) { s.State = StateRunning })

	res, err := sv.sys.JoinContext(ctx, a, b, opt)
	sv.finish(st.ID, func(s *JoinStatus) {
		if err != nil {
			s.State = StateFailed
			s.Err = err.Error()
			if res != nil {
				s.Canceled = res.Exec.Cancelled
			}
			return
		}
		s.State = StateDone
		s.Results = res.Report.Results
	})
	if err == nil {
		sv.reqMu.Lock()
		sv.folded.Fold(res.Metrics)
		sv.reqMu.Unlock()
	}
	return res, err
}

// ExplainCached is System.Explain through the server's plan cache: repeated
// plans for the same (datasets, options) are served from memory, and
// concurrent cold-start requests for one key collapse to a single build,
// whose error, ctx's included, every waiter on it gets. The returned Plan is
// shared — callers must not mutate it.
func (sv *Server) ExplainCached(ctx context.Context, a, b *Dataset, opt Options) (*Plan, error) {
	if err := sv.sys.checkJoinable(a, b); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	p, _, err := sv.plans.Get(newPlanKey(a, b, opt), func() (*Plan, error) {
		return sv.sys.ExplainContext(ctx, a, b, opt)
	})
	return p, err
}

// Stats returns a point-in-time snapshot of the server's counters.
func (sv *Server) Stats() ServeStats {
	var out ServeStats
	out.Admitted, out.Rejected, out.DeadlineExpired,
		out.InUseFrames, out.FramesHighWater, out.Queued, out.QueueHighWater = sv.admit.snapshot()
	out.PlanHits, out.PlanMisses = sv.plans.Stats()
	sv.reqMu.Lock()
	out.Completed, out.Failed = sv.completed, sv.failed
	out.FoldedRuns = sv.folded.FoldedRuns
	sv.reqMu.Unlock()
	return out
}

// Metrics returns a copy of the cumulative service metrics: every completed
// request's snapshot folded together (see metrics.Metrics.Fold — phase sums
// still equal totals; per-cluster and trace detail is per-request only).
func (sv *Server) Metrics() metrics.Metrics {
	sv.reqMu.Lock()
	defer sv.reqMu.Unlock()
	return sv.folded
}

// Joins returns the in-flight requests followed by the recent terminal ones,
// each ascending by ID. Snapshots are copies.
func (sv *Server) Joins() (activeJoins, recentJoins []JoinStatus) {
	sv.reqMu.Lock()
	defer sv.reqMu.Unlock()
	ids := make([]int64, 0, len(sv.active))
	for id := range sv.active {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		activeJoins = append(activeJoins, *sv.active[id])
	}
	recentJoins = append(recentJoins, sv.recent...)
	return activeJoins, recentJoins
}

func (sv *Server) register(a, b *Dataset, opt Options, cost int) *JoinStatus {
	sv.reqMu.Lock()
	defer sv.reqMu.Unlock()
	sv.nextID++
	st := &JoinStatus{
		ID:      sv.nextID,
		Left:    a.Name(),
		Right:   b.Name(),
		Method:  opt.Method.String(),
		Epsilon: opt.Epsilon,
		State:   StateQueued,
		Frames:  cost,
		Start:   time.Now(),
	}
	sv.active[st.ID] = st
	return st
}

func (sv *Server) update(id int64, f func(*JoinStatus)) {
	sv.reqMu.Lock()
	defer sv.reqMu.Unlock()
	if st, ok := sv.active[id]; ok {
		f(st)
	}
}

// finish applies f, stamps the wall clock, and moves the request from the
// active set to the recent ring.
func (sv *Server) finish(id int64, f func(*JoinStatus)) {
	sv.reqMu.Lock()
	defer sv.reqMu.Unlock()
	st, ok := sv.active[id]
	if !ok {
		return
	}
	f(st)
	st.Wall = time.Since(st.Start)
	delete(sv.active, id)
	if st.State == StateDone {
		sv.completed++
	} else {
		sv.failed++
	}
	sv.recent = append(sv.recent, *st)
	if over := len(sv.recent) - sv.opt.RecentJoins; over > 0 {
		sv.recent = append(sv.recent[:0], sv.recent[over:]...)
	}
}

// admitter is the frame-budget admission controller: a FIFO waiter queue in
// front of a counted budget. Fairness is strict arrival order — a small
// request never jumps a large one, so large joins cannot starve.
type admitter struct {
	budget   int
	queueCap int
	timeout  time.Duration

	mu      sync.Mutex
	inUse   int
	waiters []*waiter // FIFO; nil entries are abandoned slots, skipped
	// Counters.
	admitted        int64
	rejected        int64
	deadlineExpired int64
	framesHighWater int
	queueHighWater  int
}

type waiter struct {
	cost  int
	ready chan struct{} // closed by release when granted
	done  bool          // granted or abandoned (under admitter.mu)
}

// acquire blocks until cost frames are granted, ctx is done, or the queue
// deadline passes. Queue-full and deadline failures wrap ErrOverloaded.
func (ad *admitter) acquire(ctx context.Context, cost int) error {
	if cost > ad.budget {
		// Clamp: an oversized request runs alone (when the pool drains to
		// empty) instead of deadlocking behind an unreachable budget.
		cost = ad.budget
	}
	ad.mu.Lock()
	if len(ad.waiters) == 0 && ad.inUse+cost <= ad.budget {
		ad.grantLocked(cost)
		ad.mu.Unlock()
		return nil
	}
	if len(ad.waiters) >= ad.queueCap {
		ad.rejected++
		ad.mu.Unlock()
		return fmt.Errorf("%w: admission queue full (%d waiting)", ErrOverloaded, ad.queueCap)
	}
	w := &waiter{cost: cost, ready: make(chan struct{})}
	ad.waiters = append(ad.waiters, w)
	if len(ad.waiters) > ad.queueHighWater {
		ad.queueHighWater = len(ad.waiters)
	}
	ad.mu.Unlock()

	timer := time.NewTimer(ad.timeout)
	defer timer.Stop()
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		if ad.abandon(w) {
			return ctx.Err()
		}
		<-w.ready // grant raced the cancel; accept it so release stays balanced
		return nil
	case <-timer.C:
		if ad.abandon(w) {
			ad.mu.Lock()
			ad.deadlineExpired++
			ad.mu.Unlock()
			return fmt.Errorf("%w: queued past deadline (%s)", ErrOverloaded, ad.timeout)
		}
		<-w.ready
		return nil
	}
}

// abandon removes a waiter that gave up; it reports false when the grant
// already happened (the caller then owns the budget and must proceed). A
// departing head may have been all that held the waiters behind it back, so
// the queue is granted again.
func (ad *admitter) abandon(w *waiter) bool {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	if w.done {
		return false
	}
	w.done = true
	for i, q := range ad.waiters {
		if q == w {
			ad.waiters = append(ad.waiters[:i], ad.waiters[i+1:]...)
			break
		}
	}
	ad.grantWaitersLocked()
	return true
}

// release returns cost frames and grants the queue.
func (ad *admitter) release(cost int) {
	if cost > ad.budget {
		cost = ad.budget // mirror acquire's clamp
	}
	ad.mu.Lock()
	defer ad.mu.Unlock()
	ad.inUse -= cost
	if ad.inUse < 0 {
		ad.inUse = 0
	}
	ad.grantWaitersLocked()
}

// grantWaitersLocked grants queued waiters in FIFO order while the budget
// allows.
func (ad *admitter) grantWaitersLocked() {
	for len(ad.waiters) > 0 {
		w := ad.waiters[0]
		if ad.inUse+w.cost > ad.budget {
			return // strict FIFO: nobody jumps the head
		}
		ad.waiters = ad.waiters[1:]
		w.done = true
		ad.grantLocked(w.cost)
		close(w.ready)
	}
}

func (ad *admitter) grantLocked(cost int) {
	ad.inUse += cost
	ad.admitted++
	if ad.inUse > ad.framesHighWater {
		ad.framesHighWater = ad.inUse
	}
}

func (ad *admitter) snapshot() (admitted, rejected, deadlineExpired int64, inUse, framesHW, queued, queueHW int) {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	return ad.admitted, ad.rejected, ad.deadlineExpired,
		ad.inUse, ad.framesHighWater, len(ad.waiters), ad.queueHighWater
}
