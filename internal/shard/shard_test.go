package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"pmjoin/internal/disk"
	"pmjoin/internal/join"
	"pmjoin/internal/pool"
	"pmjoin/internal/sched"
)

// chainSets builds n page sets where consecutive clusters share `overlap`
// pages: cluster i owns pages [i*stride, i*stride+size). With stride <
// size the greedy schedule is the identity chain and every step shares
// size-stride pages.
func chainSets(n, size, stride int) []sched.PageSet {
	sets := make([]sched.PageSet, n)
	for i := range sets {
		ps := make(sched.PageSet, size)
		for p := range ps {
			ps[p] = disk.PageAddr{Page: i*stride + p}
		}
		sets[i] = ps
	}
	return sets
}

func uniformEntries(n, e int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = e
	}
	return out
}

var testCost = CostModel{SeekSeconds: 0.008, TransferSeconds: 0.001, EntrySeconds: 1e-7}

func TestCutRejects(t *testing.T) {
	if _, err := Cut(chainSets(3, 4, 2), uniformEntries(2, 1), 2, testCost); err == nil {
		t.Fatal("mismatched entries length accepted")
	}
	if _, err := Cut(chainSets(3, 4, 2), uniformEntries(3, 1), 0, testCost); err == nil {
		t.Fatal("zero shards accepted")
	}
}

// priced cuts pages into shards under testCost and prices the plan.
func priced(t *testing.T, pages []sched.PageSet, entries []int, shards int) *Plan {
	t.Helper()
	plan, err := Cut(pages, entries, shards, testCost)
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = plan.Price(pages, testCost); err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestCutPartition(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 16} {
		n := 10
		plan := priced(t, chainSets(n, 6, 4), uniformEntries(n, 50), shards)
		want := shards
		if want > n {
			want = n
		}
		if len(plan.Shards) != want {
			t.Fatalf("shards=%d: got %d shards, want %d", shards, len(plan.Shards), want)
		}
		// Every cluster appears in exactly one shard, and no shard is empty.
		var all []int
		for i, sh := range plan.Shards {
			if len(sh.Clusters) == 0 {
				t.Fatalf("shards=%d: shard %d is empty", shards, i)
			}
			all = append(all, sh.Clusters...)
		}
		sort.Ints(all)
		for i, ci := range all {
			if ci != i {
				t.Fatalf("shards=%d: clusters not a partition: %v", shards, all)
			}
		}
		// The cut can only lose sharing relative to the uncut schedule here
		// (chain graph: any contiguous cut severs exactly its boundary edges).
		if plan.ShardedReads < plan.UnshardedReads {
			t.Fatalf("shards=%d: sharded reads %d < unsharded %d", shards, plan.ShardedReads, plan.UnshardedReads)
		}
		if plan.CutLostPages != plan.ShardedReads-plan.UnshardedReads {
			t.Fatalf("CutLostPages %d != %d - %d", plan.CutLostPages, plan.ShardedReads, plan.UnshardedReads)
		}
	}
}

func TestCutSingleShardMatchesGlobal(t *testing.T) {
	n := 8
	pages := chainSets(n, 5, 3)
	plan := priced(t, pages, uniformEntries(n, 10), 1)
	if len(plan.Shards) != 1 {
		t.Fatalf("got %d shards", len(plan.Shards))
	}
	if plan.ShardedReads != plan.UnshardedReads || plan.CutLostPages != 0 {
		t.Fatalf("1-shard plan pays a cut: sharded=%d unsharded=%d lost=%d",
			plan.ShardedReads, plan.UnshardedReads, plan.CutLostPages)
	}
	if plan.CutPenaltySeconds != 0 {
		t.Fatalf("1-shard penalty %g != 0", plan.CutPenaltySeconds)
	}
}

func TestCutPrefersWeakEdges(t *testing.T) {
	// Two tight blocks of 3 clusters (heavy intra-block sharing) joined by a
	// weak bridge. A 2-way cut balanced on cost alone could fall anywhere
	// near the middle; the planner must pick the weak boundary between the
	// blocks, losing only the bridge's single shared page.
	block := func(base int) []sched.PageSet {
		var sets []sched.PageSet
		for i := 0; i < 3; i++ {
			var ps []int
			for p := 0; p < 8; p++ {
				ps = append(ps, base+p) // the block's shared core
			}
			ps = append(ps, base+100+i) // a private page each
			if base == 0 && i == 2 {
				ps = append(ps, 50) // one shared bridge page between the blocks
			}
			sets = append(sets, sched.NewPageSet(0, nil, 0, ps))
		}
		return sets
	}
	pages := append(block(0), block(50)...)
	plan := priced(t, pages, uniformEntries(6, 10), 2)
	for _, sh := range plan.Shards {
		lo, hi := 0, 0
		for _, ci := range sh.Clusters {
			if ci < 3 {
				lo++
			} else {
				hi++
			}
		}
		if lo != 0 && hi != 0 {
			t.Fatalf("cut crossed the weak boundary: shards %+v", plan.Shards)
		}
	}
	if plan.CutLostPages > 1 {
		t.Fatalf("cut lost %d pages, want <= 1 (the bridge)", plan.CutLostPages)
	}
}

func TestCutDeterministic(t *testing.T) {
	n := 12
	pages := chainSets(n, 7, 4)
	entries := uniformEntries(n, 25)
	a := priced(t, pages, entries, 4)
	b := priced(t, pages, entries, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("plans differ:\n%+v\n%+v", a, b)
	}
}

// TestCutShardOrders pins the premise of every sharded run's bit-identity:
// each shard runs the order a solo run over its members would take — the
// greedy schedule over them, members in ascending creation order, mapped back
// to creation indices, or under Random the seeded permutation of them — and a
// one-shard plan runs the global schedule itself.
func TestCutShardOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pages := make([]sched.PageSet, 24)
	for i := range pages {
		var ps []int
		for p := 0; p < 6; p++ {
			ps = append(ps, rng.Intn(40))
		}
		slices.Sort(ps)
		pages[i] = sched.NewPageSet(0, slices.Compact(ps), 0, nil)
	}
	entries := uniformEntries(len(pages), 10)
	global := sched.GreedyOrder(len(pages), sched.SharingGraph(pages))
	for _, random := range []bool{false, true} {
		cm := testCost
		cm.Random, cm.Seed = random, 7
		for _, shards := range []int{1, 2, 3} {
			plan, err := Cut(pages, entries, shards, cm)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(plan.Order, global) {
				t.Fatalf("random=%v shards=%d: plan order %v, global schedule %v", random, shards, plan.Order, global)
			}
			for si, sh := range plan.Shards {
				members := slices.Clone(sh.Clusters)
				slices.Sort(members)
				sub := make([]sched.PageSet, len(members))
				for i, ci := range members {
					sub[i] = pages[ci]
				}
				edges := sched.SharingGraph(sub)
				local, wantEdges := sched.GreedyOrder(len(sub), edges), len(edges)
				if random {
					local, wantEdges = sched.RandomOrder(len(sub), cm.Seed), 0
				}
				want := make([]int, len(local))
				for i, li := range local {
					want[i] = members[li]
				}
				if !slices.Equal(sh.Clusters, want) || sh.ScheduleEdges != wantEdges {
					t.Errorf("random=%v shards=%d shard %d: order %v (%d edges), want %v (%d edges)",
						random, shards, si, sh.Clusters, sh.ScheduleEdges, want, wantEdges)
				}
				if shards == 1 && !random && !slices.Equal(sh.Clusters, global) {
					t.Errorf("1-shard order %v, global schedule %v", sh.Clusters, global)
				}
			}
		}
	}
}

func TestCutEmpty(t *testing.T) {
	plan, err := Cut(nil, nil, 3, testCost)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != 1 || len(plan.Shards[0].Clusters) != 0 {
		t.Fatalf("empty input plan: %+v", plan)
	}
}

// testPool returns a pool of two workers, closed when t ends.
func testPool(t *testing.T) *pool.Pool {
	p := pool.New(2)
	t.Cleanup(p.Close)
	return p
}

// plainPlan is a plan of n shards, shard i owning i+1 clusters.
func plainPlan(n int) *Plan {
	p := &Plan{Shards: make([]Shard, n)}
	for i := range p.Shards {
		p.Shards[i].Clusters = make([]int, i+1)
	}
	return p
}

func TestRunOrder(t *testing.T) {
	plan := plainPlan(9)
	for _, workers := range []int{0, 1, 3, 100} {
		got := make([]int, len(plan.Shards))
		err := Run(context.Background(), plan, testPool(t), workers, func(i int, sh Shard) error {
			got[i] = len(sh.Clusters)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range got {
			if n != i+1 {
				t.Fatalf("workers=%d: slot %d holds shard of %d clusters, want %d", workers, i, n, i+1)
			}
		}
	}
}

func TestRunFirstError(t *testing.T) {
	plan := plainPlan(6)
	for _, workers := range []int{1, 4} {
		err := Run(context.Background(), plan, testPool(t), workers, func(i int, _ Shard) error {
			if i >= 3 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "shard 3: boom 3" {
			t.Fatalf("workers=%d: err = %v, want first failure by index", workers, err)
		}
	}
}

// TestMergePairsCapsAndFlags pins the merge of the shards' pair collectors
// (join.MergePairs, in shard-index order): the global cap, truncation from
// the cap or from a shard's local cap, and the collectors emptied.
func TestMergePairsCapsAndFlags(t *testing.T) {
	// shards builds three shard collectors that keep at most localCap pairs
	// each; merging empties them.
	shards := func(localCap int) []*join.Pairs {
		collect := func(pairs ...[2]int) *join.Pairs {
			p := join.NewPairs(localCap)
			for _, pr := range pairs {
				p.Add(pr[0], pr[1])
			}
			return p
		}
		return []*join.Pairs{collect([2]int{1, 1}, [2]int{1, 2}), collect(), collect([2]int{2, 1})}
	}
	pairs, trunc := join.MergePairs(shards(10), 10)
	if trunc || !reflect.DeepEqual(pairs, [][2]int{{1, 1}, {1, 2}, {2, 1}}) {
		t.Fatalf("pairs %v trunc %v", pairs, trunc)
	}
	pairs, trunc = join.MergePairs(shards(10), 2)
	if !trunc || !reflect.DeepEqual(pairs, [][2]int{{1, 1}, {1, 2}}) {
		t.Fatalf("capped merge: pairs %v trunc %v", pairs, trunc)
	}
	pairs, trunc = join.MergePairs(shards(1), 10)
	if !trunc || !reflect.DeepEqual(pairs, [][2]int{{1, 1}, {2, 1}}) {
		t.Fatalf("local truncation not propagated: pairs %v trunc %v", pairs, trunc)
	}
	cols := shards(10)
	join.MergePairs(cols, 10)
	if pairs, trunc = join.MergePairs(cols, 10); pairs != nil || trunc {
		t.Fatalf("merged collectors not emptied: pairs %v trunc %v, want nil, false", pairs, trunc)
	}
}

// gate blocks every shard it runs until released, reporting which shards
// started; used to pin Run's mid-run cancellation behavior.
type gate struct {
	started chan int
	release chan struct{}
	runs    int64
}

func newGate(n int) *gate {
	return &gate{started: make(chan int, n), release: make(chan struct{})}
}

func (g *gate) shard(i int, _ Shard) error {
	atomic.AddInt64(&g.runs, 1)
	g.started <- i
	<-g.release
	return nil
}

// TestRunCancelMidRun is the regression test for the cancellation
// check before each shard: cancelling while early shards are in flight must
// stop every not-yet-started shard (each records the cancellation in its
// slot instead of running) and Run must return the cancellation as the first
// error in shard-index order.
func TestRunCancelMidRun(t *testing.T) {
	const nShards, workers = 8, 2
	g := newGate(nShards)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	p := testPool(t)
	go func() {
		done <- Run(ctx, plainPlan(nShards), p, workers, g.shard)
	}()
	// Wait until both workers hold a shard, cancel, then release them.
	first := []int{<-g.started, <-g.started}
	cancel()
	close(g.release)
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The two in-flight shards ran; nothing else may have started.
	if n := atomic.LoadInt64(&g.runs); n != workers {
		t.Fatalf("%d shards ran, want %d (cancel must stop unstarted shards)", n, workers)
	}
	// First error by index: the pool takes shards in order, so shards 0 and
	// 1 were the ones in flight, the first cancelled slot is shard 2, and
	// Run's error names it.
	if slices.Sort(first); !slices.Equal(first, []int{0, 1}) {
		t.Fatalf("shards %v in flight, want [0 1]", first)
	}
	if got := err.Error(); got != "shard 2: context canceled" {
		t.Fatalf("err = %q, want the first cancelled slot by index", got)
	}
}

// TestRunCancelPromptDrain pins that a cancelled run does not execute
// the tail of a long plan: with one worker (the inline path) and a cancel
// during the first shard, Run returns after exactly one shard no matter how
// many remain.
func TestRunCancelPromptDrain(t *testing.T) {
	const nShards = 100
	g := newGate(nShards)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	p := testPool(t)
	go func() {
		errCh <- Run(ctx, plainPlan(nShards), p, 1, g.shard)
	}()
	<-g.started
	cancel()
	close(g.release)
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt64(&g.runs); n != 1 {
		t.Fatalf("%d shards ran after cancel, want 1", n)
	}
}

// TestMergeReportsRequiresShardZero pins MergeReports' explicit base: the
// merge starts from shard 0's report, which alone carries the clustering
// preprocess charge, so clustering is counted once; every later shard's
// costs and counters add to it, and no input report is mutated.
func TestMergeReportsRequiresShardZero(t *testing.T) {
	mk := func(pre, io float64, marked int) *join.Report {
		return &join.Report{Method: "clustered", MarkedEntries: marked, PreprocessSeconds: pre, IOSeconds: io, Clusters: 2}
	}
	reps := []*join.Report{mk(5, 1, 40), mk(0.5, 2, 40), mk(0.5, 3, 40)}
	rep := MergeReports(reps)
	want := join.Report{Method: "clustered", MarkedEntries: 40, PreprocessSeconds: 6, IOSeconds: 6, Clusters: 6}
	if *rep != want {
		t.Fatalf("merge = %+v, want %+v", *rep, want)
	}
	// Source reports must not be mutated by the merge.
	if *reps[0] != *mk(5, 1, 40) {
		t.Fatalf("merge mutated shard 0's report: %+v", reps[0])
	}
	if one := MergeReports(reps[:1]); one == reps[0] || *one != *reps[0] {
		t.Fatalf("one-shard merge = %p %+v, want a copy of %p %+v", one, *one, reps[0], *reps[0])
	}
}
