package pmjoin

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// memoPlan is the System's memoized plan of method under opt, looked up the
// way Join's clustered route and Explain look it up.
func memoPlan(sys *System, a, b *Dataset, method Method, opt Options) (*clusterPlan, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return sys.plan(context.Background(), a, b, method, opt, nil, nil)
}

// TestPlanKeyNamesEveryPlanInput: the plan memo's key holds every option a
// clustered method's plan reads and nothing else. On a fresh System a join
// fills the plan of its options; a second join differing in one option then
// misses if the plan reads that option and hits otherwise, which
// Exec.PreprocessWall (0 on a hit) and the plan memo's hit count both show.
// The shard count is the cut's, so Shards 0 and 1 are one plan.
func TestPlanKeyNamesEveryPlanInput(t *testing.T) {
	type variant struct {
		name string
		hit  bool
		from func(*Options) // the first join's change to the base, if any
		to   func(*Options)
	}
	common := []variant{
		{name: "Epsilon", to: func(o *Options) { o.Epsilon += 0.01 }},
		{name: "FilterDepth", to: func(o *Options) { o.FilterDepth = -1 }},
		{name: "BufferPages", to: func(o *Options) { o.BufferPages += 4 }},
		{name: "Shards", to: func(o *Options) { o.Sharding.Shards = 2 }},
		{name: "Policy", to: func(o *Options) { o.Policy = FIFO }},
		{name: "Shards=1", hit: true, to: func(o *Options) { o.Sharding.Shards = 1 }},
		{name: "Parallelism", hit: true, to: func(o *Options) { o.Parallelism = 3 }},
		{name: "CollectPairs", hit: true, to: func(o *Options) { o.CollectPairs = true }},
		{name: "MaxPairs", hit: true, from: func(o *Options) { o.CollectPairs = true },
			to: func(o *Options) { o.CollectPairs, o.MaxPairs = true, 5 }},
		{name: "Trace", hit: true, to: func(o *Options) { o.Trace = true }},
		{name: "Storage", hit: true, to: func(o *Options) { o.Storage = StorageFile }},
		{name: "Sharding.Workers", hit: true, from: func(o *Options) { o.Sharding.Shards, o.Sharding.Workers = 2, 1 },
			to: func(o *Options) { o.Sharding.Shards, o.Sharding.Workers = 2, 2 }},
	}
	rowFraction := func(o *Options) { o.ClusterRowFraction = 0.3 }
	seed := func(o *Options) { o.Seed = 9 }
	bins := func(o *Options) { o.HistogramBins = 7 }
	own := map[Method][]variant{
		SC: {
			{name: "ClusterRowFraction", to: rowFraction},
			{name: "Seed", hit: true, to: seed},
			{name: "HistogramBins", hit: true, to: bins},
		},
		RandomSC: {
			{name: "ClusterRowFraction", to: rowFraction},
			{name: "Seed", to: seed},
			{name: "HistogramBins", hit: true, to: bins},
		},
		CC: {
			{name: "HistogramBins", to: bins},
			{name: "Seed", to: seed},
			{name: "ClusterRowFraction", hit: true, to: rowFraction},
		},
	}
	for _, method := range []Method{SC, RandomSC, CC} {
		for _, v := range append(common, own[method]...) {
			t.Run(method.String()+"/"+v.name, func(t *testing.T) {
				sys, da, db := smallVecSystem(t)
				if err := sys.UseFileStore(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { sys.CloseStore() })
				first := Options{Method: method, Epsilon: 0.08, BufferPages: 12, Parallelism: 1}
				if v.from != nil {
					v.from(&first)
				}
				if _, err := sys.Join(da, db, first); err != nil {
					t.Fatal(err)
				}
				second := first
				v.to(&second)
				hits, _ := sys.plans.Stats()
				res, err := sys.Join(da, db, second)
				if err != nil {
					t.Fatal(err)
				}
				after, _ := sys.plans.Stats()
				hit := after > hits
				if hit != v.hit || (res.Exec.PreprocessWall == 0) != v.hit {
					t.Fatalf("hit %v, PreprocessWall %v; want hit %v", hit, res.Exec.PreprocessWall, v.hit)
				}
			})
		}
	}

	// Explain plans SC whatever the Method: it shares an SC join's plan and
	// not a CC join's.
	sys, da, db := smallVecSystem(t)
	opt := Options{Method: SC, Epsilon: 0.08, BufferPages: 12}
	explainHit := func(o Options) bool {
		t.Helper()
		hits, _ := sys.plans.Stats()
		if _, err := sys.Explain(da, db, o); err != nil {
			t.Fatal(err)
		}
		after, _ := sys.plans.Stats()
		return after > hits
	}
	if _, err := sys.Join(da, db, opt); err != nil {
		t.Fatal(err)
	}
	opt.Method = CC
	if !explainHit(opt) {
		t.Fatal("Explain missed the SC join's plan")
	}
	opt.Epsilon = 0.09
	if _, err := sys.Join(da, db, opt); err != nil {
		t.Fatal(err)
	}
	if explainHit(opt) {
		t.Fatal("Explain hit a CC join's plan")
	}
}

// TestPlanWaiterKeepsItsOwnContext: two joins ask for one cold plan, and
// the one filling it is cancelled after the matrix build, while the other
// waits on its fill. The waiter does not inherit that cancellation: it plans
// again and returns the Result of a solo join on a fresh System.
func TestPlanWaiterKeepsItsOwnContext(t *testing.T) {
	sys, da, db, opt := metricsWorkload(t)
	type outcome struct {
		res *Result
		err error
	}
	waiter := make(chan outcome, 1)
	filler := newCancelAfter(1) // JoinContext's own check passes, planning's first does not
	filler.wait = func() {
		// The filler's plan is in flight: start the waiter, and cancel once
		// it has joined the flight, its miss counted.
		go func() {
			res, err := sys.JoinContext(context.Background(), da, db, opt)
			waiter <- outcome{res, err}
		}()
		for {
			if _, misses := sys.plans.Stats(); misses >= 2 {
				return
			}
			runtime.Gosched()
		}
	}
	res, err := sys.JoinContext(filler, da, db, opt)
	if !errors.Is(err, context.Canceled) || res == nil || !res.Exec.Cancelled {
		t.Fatalf("filler: %+v, %v; want a cancelled result", res, err)
	}
	got := <-waiter
	if got.err != nil {
		t.Fatalf("waiter inherited the filler's cancellation: %v", got.err)
	}
	if got.res.Exec.PreprocessWall == 0 {
		t.Error("the waiter did not plan again")
	}
	fresh, fa, fb, _ := metricsWorkload(t)
	solo, err := fresh.Join(fa, fb, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(deterministicFields(got.res), deterministicFields(solo)) {
		t.Fatalf("waiter's result differs from a solo join:\n waiter: %+v\n solo:   %+v", got.res, solo)
	}
}
