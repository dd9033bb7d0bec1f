package pmjoin

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"pmjoin/internal/predmat"
)

func newTestServer(t *testing.T, so ServeOptions) (*Server, *Dataset, *Dataset) {
	t.Helper()
	sys := NewSystem(DiskModel{PageBytes: 256})
	da, err := sys.AddVectors("a", randomVecs(400, 2, 1), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sys.AddVectors("b", randomVecs(300, 2, 2), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewServer(sys, so)
	if err != nil {
		t.Fatal(err)
	}
	return sv, da, db
}

func TestServeOptionsDefaults(t *testing.T) {
	o := ServeOptions{}.withDefaults()
	if o.AdmitFrames != 16384 || o.QueueDepth != 64 ||
		o.QueueTimeout != 5*time.Second || o.PlanCacheEntries != 128 || o.RecentJoins != 64 {
		t.Fatalf("defaults = %+v", o)
	}
	if o = (ServeOptions{AdmitFrames: 100}).withDefaults(); o.AdmitFrames != 100 {
		t.Fatalf("explicit budget = %d, want 100", o.AdmitFrames)
	}
}

// TestServerConcurrentBitIdentical is the serving-layer determinism gate: many
// concurrent Server.Join calls, some sharded, must each return a Result
// bit-identical (deterministic fields) to a solo System.Join with the same
// Options, and the admission ledger must balance afterwards. Run under -race
// in CI.
func TestServerConcurrentBitIdentical(t *testing.T) {
	sv, da, db := newTestServer(t, ServeOptions{})
	sys := sv.System()

	jobs := []Options{
		{Method: SC, Epsilon: 0.05, BufferPages: 16, CollectPairs: true},
		{Method: SC, Epsilon: 0.05, BufferPages: 16, CollectPairs: true}, // duplicate: same pages read concurrently
		{Method: CC, Epsilon: 0.07, BufferPages: 16, Parallelism: 2},
		{Method: PMNLJ, Epsilon: 0.05, BufferPages: 8},
		{Method: SC, Epsilon: 0.07, BufferPages: 12, Sharding: ShardingOptions{Shards: 3, Workers: 2}},
		{Method: NLJ, Epsilon: 0.05, BufferPages: 8},
		{Method: SC, Epsilon: 0.05, BufferPages: 24},
		{Method: CC, Epsilon: 0.05, BufferPages: 16, CollectPairs: true, Seed: 7},
	}
	baselines := make([]*Result, len(jobs))
	for i, opt := range jobs {
		var err error
		if baselines[i], err = sys.Join(da, db, opt); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 2
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		results := make([]*Result, len(jobs))
		errs := make([]error, len(jobs))
		for i, opt := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], errs[i] = sv.Join(context.Background(), da, db, opt)
			}()
		}
		wg.Wait()
		for i := range jobs {
			if errs[i] != nil {
				t.Fatalf("round %d job %d: %v", round, i, errs[i])
			}
			got, want := deterministicFields(results[i]), deterministicFields(baselines[i])
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round %d job %d (%v) served result differs from solo:\n solo:   %+v\n served: %+v",
					round, i, jobs[i].Method, want, got)
			}
		}
	}

	st := sv.Stats()
	if st.Admitted != int64(rounds*len(jobs)) || st.Completed != st.Admitted {
		t.Fatalf("admission accounting: %+v", st)
	}
	if st.Rejected != 0 || st.DeadlineExpired != 0 || st.Failed != 0 {
		t.Fatalf("unexpected rejections: %+v", st)
	}
	if st.FoldedRuns != st.Completed {
		t.Fatalf("folded %d runs, completed %d", st.FoldedRuns, st.Completed)
	}
	if st.InUseFrames != 0 || st.Queued != 0 {
		t.Fatalf("admission state not drained: %+v", st)
	}
	// The folded service metrics keep the phases-sum-to-totals invariant.
	m := sv.Metrics()
	sum := m.Phases[0].Disk
	for _, ps := range m.Phases[1:] {
		sum = sum.Add(ps.Disk)
	}
	if sum != m.Disk {
		t.Fatalf("folded metrics broke invariant: phases %+v total %+v", sum, m.Disk)
	}
}

func TestAdmitterQueueFullAndDeadline(t *testing.T) {
	// The scenario needs the second arrival to find the first still queued.
	// A 20 ms deadline can pass before the test observes it queued (a loaded
	// -race run did), so a missed window retries with a doubled deadline.
	for timeout := 20 * time.Millisecond; timeout <= 5*time.Second; timeout *= 2 {
		if admitterQueueFullAndDeadline(t, timeout) {
			return
		}
	}
	t.Fatal("the queued waiter expired before the queue-full arrival at every deadline up to 5s")
}

// admitterQueueFullAndDeadline runs the scenario once and reports false when
// the waiter's deadline passed before the queue-full arrival.
func admitterQueueFullAndDeadline(t *testing.T, timeout time.Duration) bool {
	t.Helper()
	ad := &admitter{budget: 10, queueCap: 1, timeout: timeout}
	ctx := context.Background()
	if err := ad.acquire(ctx, 10); err != nil {
		t.Fatal(err)
	}

	// One waiter fits in the queue and times out at the deadline.
	errCh := make(chan error, 1)
	go func() { errCh <- ad.acquire(ctx, 5) }()
	// Wait until it is queued; its deadline bounds the wait, since it leaves
	// the queue (expired moves) no later than timeout after joining it.
	for {
		_, _, expired, _, _, queued, _ := ad.snapshot()
		if expired > 0 {
			<-errCh
			return false
		}
		if queued == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	// A second arrival overflows the queue — unless the waiter expired since
	// the snapshot, in which case this one queues and expires in turn.
	overflowErr := ad.acquire(ctx, 5)
	if err := <-errCh; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("deadline acquire err = %v, want ErrOverloaded", err)
	}
	admitted, rejected, expired, inUse, _, queued, _ := ad.snapshot()
	if rejected == 0 && expired == 2 {
		return false
	}
	if !errors.Is(overflowErr, ErrOverloaded) {
		t.Fatalf("queue-full acquire err = %v, want ErrOverloaded", overflowErr)
	}
	if admitted != 1 || rejected != 1 || expired != 1 || inUse != 10 || queued != 0 {
		t.Fatalf("counters: admitted=%d rejected=%d expired=%d inUse=%d queued=%d",
			admitted, rejected, expired, inUse, queued)
	}

	// Release unblocks a fresh waiter immediately.
	ad.release(10)
	if err := ad.acquire(ctx, 10); err != nil {
		t.Fatal(err)
	}
	ad.release(10)
	return true
}

func TestAdmitterFIFOAndOversize(t *testing.T) {
	ad := &admitter{budget: 10, queueCap: 8, timeout: time.Second}
	ctx := context.Background()
	// An oversized request clamps to the whole budget instead of deadlocking
	// behind an unreachable threshold, and its release clamps to match.
	if err := ad.acquire(ctx, 1000); err != nil {
		t.Fatal(err)
	}
	ad.release(1000)
	if _, _, _, inUse, _, _, _ := ad.snapshot(); inUse != 0 {
		t.Fatalf("inUse = %d after oversized release", inUse)
	}

	// Strict FIFO: a small waiter never jumps a blocked head waiter even when
	// the budget has room for it.
	if err := ad.acquire(ctx, 4); err != nil {
		t.Fatal(err)
	}
	done1 := make(chan error, 1)
	go func() { done1 <- ad.acquire(ctx, 8) }() // 4+8 > 10: queues at head
	for {
		_, _, _, _, _, queued, _ := ad.snapshot()
		if queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- ad.acquire(ctx, 2) }() // 4+2 <= 10 but behind the head
	for {
		_, _, _, _, _, queued, _ := ad.snapshot()
		if queued == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done2:
		t.Fatal("small waiter jumped the blocked head of the queue")
	case <-time.After(30 * time.Millisecond):
	}
	ad.release(4) // head fits now; both drain in order
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
	ad.release(8)
	ad.release(2)
	if _, _, _, inUse, _, _, _ := ad.snapshot(); inUse != 0 {
		t.Fatalf("inUse = %d after full release", inUse)
	}
}

func TestAdmitterCancelWhileQueued(t *testing.T) {
	ad := &admitter{budget: 4, queueCap: 4, timeout: time.Minute}
	if err := ad.acquire(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- ad.acquire(ctx, 4) }()
	for {
		_, _, _, _, _, queued, _ := ad.snapshot()
		if queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The abandoned waiter must not absorb a later grant.
	ad.release(4)
	if err := ad.acquire(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitterCancelledHeadGrantsWaiters: when the head of the queue gives
// up, the waiters behind it that fit the free budget are granted at once,
// not left to wait for the next release (or to time out into ErrOverloaded).
func TestAdmitterCancelledHeadGrantsWaiters(t *testing.T) {
	ad := &admitter{budget: 100, queueCap: 4, timeout: time.Minute}
	if err := ad.acquire(context.Background(), 60); err != nil {
		t.Fatal(err)
	}
	waitQueued := func(n int) {
		for {
			if _, _, _, _, _, queued, _ := ad.snapshot(); queued == n {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	headErr := make(chan error, 1)
	go func() { headErr <- ad.acquire(ctx, 50) }() // 60+50 > 100: queues at head
	waitQueued(1)
	nextErr := make(chan error, 1)
	go func() { nextErr <- ad.acquire(context.Background(), 30) }() // fits, but behind the head
	waitQueued(2)

	cancel()
	if err := <-headErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("head err = %v, want context.Canceled", err)
	}
	select {
	case err := <-nextErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter behind a cancelled head is still queued with 40 frames free")
	}
	if _, _, _, inUse, _, queued, _ := ad.snapshot(); inUse != 90 || queued != 0 {
		t.Fatalf("inUse = %d, queued = %d; want 90 and 0", inUse, queued)
	}
	ad.release(30)
	ad.release(60)
}

// TestServerRejectionAccounting drives the server into overload and checks
// rejected requests surface ErrOverloaded, never run, and are accounted.
func TestServerRejectionAccounting(t *testing.T) {
	// Budget of one request; no queue to speak of.
	sv, da, db := newTestServer(t, ServeOptions{
		AdmitFrames: 16, QueueDepth: 1, QueueTimeout: 30 * time.Millisecond,
	})
	opt := Options{Method: SC, Epsilon: 0.05, BufferPages: 16}

	const clients = 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = sv.Join(context.Background(), da, db, opt)
		}()
	}
	wg.Wait()

	var ok, overloaded int
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			overloaded++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if ok == 0 {
		t.Fatal("no request succeeded")
	}
	st := sv.Stats()
	if st.Completed != int64(ok) || st.Failed != int64(overloaded) {
		t.Fatalf("ok=%d overloaded=%d but stats %+v", ok, overloaded, st)
	}
	if st.Rejected+st.DeadlineExpired != int64(overloaded) {
		t.Fatalf("rejection split: %+v vs %d overloaded", st, overloaded)
	}
	_, recent := sv.Joins()
	var rejected int
	for _, j := range recent {
		if j.State == StateRejected {
			rejected++
			if j.Err == "" {
				t.Fatalf("rejected status lost its error: %+v", j)
			}
		}
	}
	if rejected != overloaded {
		t.Fatalf("recent ring shows %d rejections, want %d", rejected, overloaded)
	}
}

// TestServerJoinCancel: a client that cancels before or during its join gets
// context.Canceled, the server hands the join's frames back and books it as
// failed, and the next join runs.
func TestServerJoinCancel(t *testing.T) {
	sv, da, db := newTestServer(t, ServeOptions{})
	// A self NLJ long enough that a cancel lands mid-run on any host.
	big, err := sv.System().AddVectors("big", randomVecs(3000, 2, 5), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sv.Join(ctx, da, db, Options{Method: SC, Epsilon: 0.05, BufferPages: 16}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled join: err = %v, want context.Canceled", err)
	}

	// Cancel as soon as the registry shows the join running.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	returned, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-returned:
				return
			default:
			}
			if active, _ := sv.Joins(); len(active) == 1 && active[0].State == StateRunning {
				cancel()
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	res, err := sv.Join(ctx, big, big, Options{Method: NLJ, Epsilon: 0.05, BufferPages: 4})
	close(returned)
	<-polled
	if !errors.Is(err, context.Canceled) || res == nil || !res.Exec.Cancelled {
		t.Fatalf("mid-run cancel: err = %v, result %v; want context.Canceled and Exec.Cancelled", err, res != nil)
	}

	st := sv.Stats()
	if st.InUseFrames != 0 || st.Queued != 0 {
		t.Fatalf("cancelled joins kept admission state: %+v", st)
	}
	if st.Admitted != 2 || st.Completed != 0 || st.Failed != 2 || st.Rejected != 0 {
		t.Fatalf("cancelled joins misaccounted: %+v", st)
	}
	if _, err := sv.Join(context.Background(), da, db, Options{Method: SC, Epsilon: 0.05, BufferPages: 16}); err != nil {
		t.Fatalf("join after cancellations: %v", err)
	}
	if st := sv.Stats(); st.Admitted != 3 || st.Completed != 1 || st.Failed != 2 || st.InUseFrames != 0 {
		t.Fatalf("join after cancellations misaccounted: %+v", st)
	}
}

func TestServerJoinsRegistry(t *testing.T) {
	sv, da, db := newTestServer(t, ServeOptions{RecentJoins: 2})
	opt := Options{Method: SC, Epsilon: 0.05, BufferPages: 16}
	for i := 0; i < 4; i++ {
		if _, err := sv.Join(context.Background(), da, db, opt); err != nil {
			t.Fatal(err)
		}
	}
	active, recent := sv.Joins()
	if len(active) != 0 {
		t.Fatalf("active after completion: %+v", active)
	}
	if len(recent) != 2 {
		t.Fatalf("recent ring size = %d, want 2", len(recent))
	}
	if recent[0].ID != 3 || recent[1].ID != 4 {
		t.Fatalf("ring kept wrong entries: %+v", recent)
	}
	for _, j := range recent {
		if j.State != StateDone || j.Results == 0 || j.Left != "a" || j.Right != "b" || j.Method != "SC" {
			t.Fatalf("status: %+v", j)
		}
	}
}

func TestServerExplainCached(t *testing.T) {
	sv, da, db := newTestServer(t, ServeOptions{PlanCacheEntries: 2})
	opt := Options{Method: SC, Epsilon: 0.05, BufferPages: 16}

	// Concurrent cold start: one build, everyone adopts the same plan.
	const callers = 8
	var wg sync.WaitGroup
	plans := make([]*Plan, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := sv.ExplainCached(context.Background(), da, db, opt)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if plans[i] != plans[0] {
			t.Fatal("concurrent callers got different plan instances")
		}
	}

	// A warm repeat is a hit on the same instance.
	p2, err := sv.ExplainCached(context.Background(), da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != plans[0] {
		t.Fatal("warm lookup returned a different plan")
	}
	st := sv.Stats()
	if st.PlanHits == 0 {
		t.Fatalf("no plan hits recorded: %+v", st)
	}
	// FilterDepth 0 is the default depth, so naming the default explicitly
	// is the same plan and the same cache entry.
	deep := opt
	deep.FilterDepth = predmat.DefaultFilterDepth
	if p, err := sv.ExplainCached(context.Background(), da, db, deep); err != nil || p != plans[0] {
		t.Fatalf("FilterDepth %d missed the FilterDepth 0 plan (err %v)", deep.FilterDepth, err)
	}

	// The plan matches an uncached Explain bit for bit.
	direct, err := sv.System().Explain(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p2, direct) {
		t.Fatalf("cached plan differs from direct Explain:\n cached: %+v\n direct: %+v", p2, direct)
	}

	// Explain plans SC whatever the Method, so two explains that differ
	// only in Method are one miss and one hit on the same plan.
	before := sv.Stats()
	cc := opt
	cc.Epsilon, cc.Method = 0.09, CC
	pCC, err := sv.ExplainCached(context.Background(), da, db, cc)
	if err != nil {
		t.Fatal(err)
	}
	ego := cc
	ego.Method = EGO
	pEGO, err := sv.ExplainCached(context.Background(), da, db, ego)
	if err != nil {
		t.Fatal(err)
	}
	after := sv.Stats()
	if misses, hits := after.PlanMisses-before.PlanMisses, after.PlanHits-before.PlanHits; misses != 1 || hits != 1 || pEGO != pCC {
		t.Fatalf("explains differing only in Method: %d misses, %d hits, same plan %v; want 1, 1, true", misses, hits, pEGO == pCC)
	}

	// Every negative FilterDepth builds the unfiltered matrix, so -1 and -3
	// are one plan.
	explain := func(o Options) (hit bool) {
		t.Helper()
		before := sv.Stats().PlanHits
		if _, err := sv.ExplainCached(context.Background(), da, db, o); err != nil {
			t.Fatal(err)
		}
		return sv.Stats().PlanHits > before
	}
	off := opt
	off.FilterDepth = -1
	if explain(off) {
		t.Fatal("FilterDepth -1 hit a filtered plan")
	}
	off.FilterDepth = -3
	if !explain(off) {
		t.Fatal("FilterDepth -3 missed the FilterDepth -1 plan")
	}

	// The cache keeps PlanCacheEntries (2) plans and evicts the least
	// recently used: after explains at ε 0.06, 0.07, 0.06 and 0.08, the
	// 0.07 plan is gone and the other two are kept.
	at := func(eps float64) Options {
		o := opt
		o.Epsilon = eps
		return o
	}
	for _, eps := range []float64{0.06, 0.07, 0.06, 0.08} {
		explain(at(eps))
	}
	if !explain(at(0.06)) || !explain(at(0.08)) {
		t.Fatal("a recently used plan was evicted")
	}
	if explain(at(0.07)) {
		t.Fatal("the least recently used plan was kept past PlanCacheEntries")
	}
}

// TestServerExplainCachedPolicy: Explain replays the replacement policy, so
// an LRU plan must not answer a FIFO explain of the same join.
func TestServerExplainCachedPolicy(t *testing.T) {
	sv, da, db := newTestServer(t, ServeOptions{})
	opt := Options{Method: SC, Epsilon: 0.1, BufferPages: 12}
	lru, err := sv.ExplainCached(context.Background(), da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Policy = FIFO
	misses := sv.Stats().PlanMisses
	fifo, err := sv.ExplainCached(context.Background(), da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Stats().PlanMisses != misses+1 || fifo == lru {
		t.Fatal("the FIFO explain was answered from the LRU plan")
	}
	direct, err := sv.System().Explain(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fifo, direct) {
		t.Fatalf("cached FIFO plan differs from direct Explain:\n cached: %+v\n direct: %+v", fifo, direct)
	}
	if reflect.DeepEqual(fifo.ClusterIO, lru.ClusterIO) {
		t.Fatal("LRU and FIFO predict the same reads; the workload cannot tell the plans apart")
	}
}

func TestServerValidatesBeforeAdmission(t *testing.T) {
	sv, da, db := newTestServer(t, ServeOptions{})
	if _, err := sv.Join(context.Background(), da, db, Options{Method: SC, Epsilon: 0.05, BufferPages: 1}); err == nil {
		t.Fatal("invalid options accepted")
	}
	st := sv.Stats()
	if st.Admitted != 0 || st.Failed != 0 {
		t.Fatalf("invalid request touched admission: %+v", st)
	}
	other := NewSystem(DefaultDiskModel())
	dx, err := other.AddVectors("x", randomVecs(50, 2, 9), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Join(context.Background(), da, dx, Options{Method: SC, Epsilon: 0.05, BufferPages: 16}); err == nil {
		t.Fatal("foreign dataset accepted")
	}
	_ = db
}
