package pmjoin

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmjoin/internal/dataset"
	"pmjoin/internal/metrics"
)

// deterministicFields strips the wall-clock execution profile and the metrics
// snapshot from a result, leaving exactly the fields the determinism contract
// covers.
func deterministicFields(r *Result) Result {
	c := *r
	c.Exec = ExecStats{}
	c.Metrics = nil
	return c
}

// TestParallelDeterminism is the public determinism contract: for every
// prediction-matrix method and every data kind, a join at Parallelism N
// produces a Result (Report, Pairs, matrix stats) and a Plan bit-for-bit
// identical to the serial run. The runs share one System, so every run
// after the first reads the first one's cached matrix;
// TestStringMatrixSecondsIndependentOfParallelism builds one a Parallelism.
func TestParallelDeterminism(t *testing.T) {
	type workload struct {
		name string
		sys  *System
		a, b *Dataset
		opt  Options
	}
	var loads []workload

	{
		sys := NewSystem(DiskModel{PageBytes: 256})
		da, err := sys.AddVectors("a", randomVecs(400, 2, 1), VectorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		db, err := sys.AddVectors("b", randomVecs(300, 2, 2), VectorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, workload{"vector", sys, da, db,
			Options{Epsilon: 0.05, BufferPages: 16, CollectPairs: true}})
	}
	{
		sys := NewSystem(DiskModel{PageBytes: 1024})
		ds, err := sys.AddSeries("walk", dataset.RandomWalk(4000, 20), SeriesOptions{Window: 32, Stride: 4})
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, workload{"series", sys, ds, ds,
			Options{Epsilon: 8.0, BufferPages: 16, CollectPairs: true}})
	}
	{
		sys := NewSystem(DiskModel{PageBytes: 512})
		sa := dataset.DNA(3000, 10)
		sb := dataset.DNA(2500, 11)
		dataset.PlantHomologies(sb, sa, 6, 80, 0.02, 12)
		da, err := sys.AddString("a", sa, StringOptions{Window: 64, Stride: 8})
		if err != nil {
			t.Fatal(err)
		}
		db, err := sys.AddString("b", sb, StringOptions{Window: 64, Stride: 8})
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, workload{"string", sys, da, db,
			Options{Epsilon: 4, BufferPages: 16, CollectPairs: true}})
	}

	for _, w := range loads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, m := range []Method{PMNLJ, SC, CC} {
				m := m
				t.Run(m.String(), func(t *testing.T) {
					opt := w.opt
					opt.Method = m
					opt.Parallelism = 1
					base, err := w.sys.Join(w.a, w.b, opt)
					if err != nil {
						t.Fatal(err)
					}
					if base.Count() == 0 {
						t.Fatal("workload has no results")
					}
					basePlan, err := w.sys.Explain(w.a, w.b, opt)
					if err != nil {
						t.Fatal(err)
					}
					for _, par := range []int{2, 4} {
						opt.Parallelism = par
						res, err := w.sys.Join(w.a, w.b, opt)
						if err != nil {
							t.Fatal(err)
						}
						if got, want := deterministicFields(res), deterministicFields(base); !reflect.DeepEqual(got, want) {
							t.Errorf("Parallelism=%d result differs:\n serial:   %+v\n parallel: %+v", par, want, got)
						}
						if res.Exec.Workers != par {
							t.Errorf("Exec.Workers = %d, want %d", res.Exec.Workers, par)
						}
						plan, err := w.sys.Explain(w.a, w.b, opt)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(plan, basePlan) {
							t.Errorf("Parallelism=%d plan differs:\n serial:   %+v\n parallel: %+v", par, basePlan, plan)
						}
					}
				})
			}
		})
	}
}

// TestStringMatrixSecondsIndependentOfParallelism closes the gap the matrix
// cache leaves in TestParallelDeterminism, where every run after the first
// reads the first run's matrix: here each Parallelism builds its own matrix
// in a fresh System, over MRS-indexes of 57 windows a page, whose build
// saturates page pairs. The cells a build marks, the work it counts and so
// MatrixSeconds, and the Report must not depend on the worker count.
func TestStringMatrixSecondsIndependentOfParallelism(t *testing.T) {
	sa := dataset.DNA(12000, 13)
	sb := dataset.DNA(9000, 14)
	dataset.PlantHomologies(sb, sa, 12, 120, 0.02, 15)
	var base *Result
	for _, par := range []int{1, 2, 4} {
		sys := NewSystem(DiskModel{PageBytes: 512})
		da, err := sys.AddString("a", sa, StringOptions{Window: 64, Stride: 8})
		if err != nil {
			t.Fatal(err)
		}
		db, err := sys.AddString("b", sb, StringOptions{Window: 64, Stride: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Join(da, db, Options{Method: SC, Epsilon: 4, BufferPages: 16, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			if res.MarkedEntries == 0 || res.Count() == 0 {
				t.Fatalf("%d marked entries and %d results: the comparison is vacuous", res.MarkedEntries, res.Count())
			}
			base = res
			continue
		}
		if res.MarkedEntries != base.MarkedEntries || res.MatrixSeconds != base.MatrixSeconds {
			t.Errorf("Parallelism=%d: %d marked entries, MatrixSeconds %g; serial: %d, %g",
				par, res.MarkedEntries, res.MatrixSeconds, base.MarkedEntries, base.MatrixSeconds)
		}
		if !reflect.DeepEqual(res.Report, base.Report) {
			t.Errorf("Parallelism=%d report differs:\n serial:   %+v\n parallel: %+v", par, base.Report, res.Report)
		}
	}
}

// TestConcurrentJoinsOneSystem runs several joins on one System at once, each
// with its own worker pool, and checks every result against a solo baseline:
// the per-join disk session makes each run's account independent of the
// traffic around it.
func TestConcurrentJoinsOneSystem(t *testing.T) {
	sys := NewSystem(DiskModel{PageBytes: 256})
	da, err := sys.AddVectors("a", randomVecs(400, 2, 1), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sys.AddVectors("b", randomVecs(300, 2, 2), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}

	jobs := []Options{
		{Method: NLJ, Epsilon: 0.05, BufferPages: 8},
		{Method: PMNLJ, Epsilon: 0.05, BufferPages: 8, Parallelism: 2},
		{Method: SC, Epsilon: 0.05, BufferPages: 16, Parallelism: 3},
		{Method: CC, Epsilon: 0.07, BufferPages: 16, Parallelism: 2},
		{Method: SC, Epsilon: 0.07, BufferPages: 12, CollectPairs: true},
	}
	baselines := make([]*Result, len(jobs))
	for i, opt := range jobs {
		if baselines[i], err = sys.Join(da, db, opt); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	for i, opt := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = sys.Join(da, db, opt)
		}()
	}
	wg.Wait()

	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		got, want := deterministicFields(results[i]), deterministicFields(baselines[i])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job %d (%v) concurrent result differs:\n solo:       %+v\n concurrent: %+v",
				i, jobs[i].Method, want, got)
		}
	}
}

// waitGoroutines polls until the goroutine count drops back to the baseline
// (exited goroutines are reaped asynchronously).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Errorf("goroutines leaked: %d running, started with %d", g, baseline)
	}
}

func TestJoinContextPreCancelled(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := sys.JoinContext(ctx, da, db, Options{Method: SC, Epsilon: 0.05, BufferPages: 8, Parallelism: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || !res.Exec.Cancelled {
		t.Fatalf("result = %+v, want Exec.Cancelled", res)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("pre-cancelled join took %v", d)
	}
	waitGoroutines(t, before)
}

// TestJoinContextMidJoinCancel cancels joins while they run: an NLJ join,
// and a sharded SC join whose shards and their comparison runs share the
// System's one pool. Each returns promptly with the cancellation and leaks
// no goroutine, and the System stays usable: a join after the cancelled one
// equals a solo run on a fresh System.
func TestJoinContextMidJoinCancel(t *testing.T) {
	t.Run("NLJ", func(t *testing.T) {
		// A workload big enough that cancellation lands mid-run on any host;
		// the block boundaries of NLJ are the cancellation points.
		sys := NewSystem(DiskModel{PageBytes: 256})
		da, err := sys.AddVectors("a", randomVecs(3000, 2, 5), VectorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()

		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		res, err := sys.JoinContext(ctx, da, da, Options{Method: NLJ, Epsilon: 0.05, BufferPages: 4, Parallelism: 2})
		if err == nil {
			t.Skip("join finished before the cancel landed")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res == nil || !res.Exec.Cancelled {
			t.Fatalf("result = %+v, want Exec.Cancelled", res)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("cancelled join took %v to return", d)
		}
		waitGoroutines(t, before)
	})
	t.Run("SC-sharded", func(t *testing.T) {
		vecs := randomVecs(20000, 2, 5)
		load := func() (*System, *Dataset) {
			sys := NewSystem(DiskModel{PageBytes: 256})
			da, err := sys.AddVectors("a", vecs, VectorOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return sys, da
		}
		opt := Options{Method: SC, Epsilon: 0.01, BufferPages: 8, Parallelism: 2, CollectPairs: true,
			Sharding: ShardingOptions{Shards: 4, Workers: 2}}
		solo, ds := load()
		want, err := solo.Join(ds, ds, opt)
		if err != nil {
			t.Fatal(err)
		}

		sys, da := load()
		before := runtime.NumGoroutine()
		// Cancel halfway through the solo run's shards; a join that finishes
		// first is run again with half the delay.
		var res *Result
		var took time.Duration
		delay := want.Exec.PreprocessWall + want.Exec.JoinWall/2
		for attempt := 0; attempt < 5 && err == nil; attempt++ {
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(delay, cancel)
			start := time.Now()
			res, err = sys.JoinContext(ctx, da, da, opt)
			took = time.Since(start)
			timer.Stop()
			cancel()
			delay /= 2
		}
		if err == nil {
			t.Skip("every join finished before its cancel landed")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res == nil || !res.Exec.Cancelled {
			t.Fatalf("result = %+v, want Exec.Cancelled", res)
		}
		if took > 5*time.Second {
			t.Fatalf("cancelled join took %v to return", took)
		}
		t.Logf("cancelled after %v: %v", took, err)
		waitGoroutines(t, before)

		got, err := sys.Join(da, da, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Report, want.Report) {
			t.Errorf("Report after the cancelled join = %+v, want the fresh run's %+v", got.Report, want.Report)
		}
		if !reflect.DeepEqual(got.Pairs, want.Pairs) || got.Truncated != want.Truncated {
			t.Errorf("Pairs after the cancelled join differ from the fresh run's")
		}
	})
}

// TestJoinContextCancelDuringBuild: a cancel reaches the matrix build. An
// SC join of the landsat workload's shape (the two halves of 68 866
// Landsat-like 60-d vectors, 8 a 4 KB page, ε = 0.0155736), cancelled 2 ms
// into its build, returns within 10 ms of the cancel (under the race
// detector, 200 ms) with the cancellation,
// a snapshot holding the matrix phase and nothing after it, and no goroutine
// left running. The cancelled build is not kept: the next plan builds the
// matrix.
func TestJoinContextCancelDuringBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the landsat-shaped datasets")
	}
	sys := New()
	halves := dataset.SplitEqual(dataset.Landsat(68866, 60, 3), 2, 1)
	da, err := sys.AddVectors("a", dataset.ToFloats(halves[0]), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sys.AddVectors("b", dataset.ToFloats(halves[1]), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Method: SC, Epsilon: 0.0155736, BufferPages: 64}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancelledAt := make(chan time.Time, 1)
	timer := time.AfterFunc(2*time.Millisecond, func() {
		cancelledAt <- time.Now()
		cancel()
	})
	res, err := sys.JoinContext(ctx, da, db, opt)
	returned := time.Now()
	timer.Stop()
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	bound := 10 * time.Millisecond
	if raceDetectorEnabled {
		bound *= 20
	}
	if took := returned.Sub(<-cancelledAt); took > bound {
		t.Errorf("returned %v after the cancel, want within %v", took, bound)
	}
	if res == nil || !res.Exec.Cancelled || res.Metrics == nil {
		t.Fatalf("result = %+v, want Exec.Cancelled and a metrics snapshot", res)
	}
	if ph := res.Metrics.Phases; ph[metrics.PhaseMatrix].Wall <= 0 || ph[metrics.PhaseCluster].Wall != 0 || ph[metrics.PhaseJoin].Wall != 0 {
		t.Errorf("phase walls matrix %v, cluster %v, join %v; want the matrix phase alone",
			ph[metrics.PhaseMatrix].Wall, ph[metrics.PhaseCluster].Wall, ph[metrics.PhaseJoin].Wall)
	}
	waitGoroutines(t, before)

	hits, _ := sys.matrices.Stats()
	if _, err := sys.Explain(da, db, opt); err != nil {
		t.Fatal(err)
	}
	if after, _ := sys.matrices.Stats(); after != hits {
		t.Error("the cancelled build's matrix was kept")
	}
}

// TestServerJoinsShareOnePool: eight concurrent Server.Joins at the default
// Parallelism (SC, CC and sharded SC, as the serve_mix workload sends) run
// on the System's one pool, so the goroutines above the baseline never
// exceed the clients', the sampler's and one GOMAXPROCS-worker pool's; one
// pool per join would bring two workers each. Each Result equals a fresh
// System's.
func TestServerJoinsShareOnePool(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(max(prev, 2))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	jobs := []Options{
		{Method: SC, Epsilon: 0.05, BufferPages: 16, CollectPairs: true},
		{Method: CC, Epsilon: 0.05, BufferPages: 16},
		{Method: SC, Epsilon: 0.07, BufferPages: 12, Sharding: ShardingOptions{Shards: 3}},
		{Method: SC, Epsilon: 0.06, BufferPages: 16},
		{Method: CC, Epsilon: 0.07, BufferPages: 12, CollectPairs: true},
		{Method: SC, Epsilon: 0.05, BufferPages: 12, Sharding: ShardingOptions{Shards: 2}},
		{Method: SC, Epsilon: 0.05, BufferPages: 16, CollectPairs: true},
		{Method: CC, Epsilon: 0.06, BufferPages: 16, Seed: 5},
	}
	solo, sa, sb := newTestServer(t, ServeOptions{})
	want := make([]*Result, len(jobs))
	for i, opt := range jobs {
		var err error
		if want[i], err = solo.System().Join(sa, sb, opt); err != nil {
			t.Fatal(err)
		}
	}

	sv, da, db := newTestServer(t, ServeOptions{})
	before := runtime.NumGoroutine()
	var peak atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			peak.Store(max(peak.Load(), int64(runtime.NumGoroutine())))
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Microsecond):
			}
		}
	}()
	var wg sync.WaitGroup
	got := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	for i, opt := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = sv.Join(context.Background(), da, db, opt)
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	if limit := int64(before + len(jobs) + 1 + runtime.GOMAXPROCS(0)); peak.Load() > limit {
		t.Errorf("%d goroutines at the peak, want at most %d: %d before, %d clients, the sampler and %d pool workers",
			peak.Load(), limit, before, len(jobs), runtime.GOMAXPROCS(0))
	}
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(deterministicFields(got[i]), deterministicFields(want[i])) {
			t.Errorf("job %d (%v): the served result differs from a fresh System's", i, jobs[i].Method)
		}
	}
	waitGoroutines(t, before)
}

func TestExplainContextPreCancelled(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.ExplainContext(ctx, da, db, Options{Method: SC, Epsilon: 0.05, BufferPages: 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
