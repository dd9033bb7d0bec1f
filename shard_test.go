package pmjoin

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"pmjoin/internal/dataset"
	"pmjoin/internal/join"
	"pmjoin/internal/metrics"
)

// TestShardDeterminism is the sharding half of the determinism contract:
// for every clustered method, the merged Report, Pairs and Plan of a sharded
// run are bit-identical across shard worker counts {1, GOMAXPROCS} for a
// fixed shard count, and a 1-shard run is bit-identical to the unsharded one
// (both run the planner's single shard, the global schedule, over a cold
// session and private pool). Run under -race, this also exercises
// shard.Run's concurrent shards, on a pool of their own, against the shared
// comparison pool.
func TestShardDeterminism(t *testing.T) {
	type workload struct {
		name  string
		build func(t *testing.T) (*System, *Dataset, *Dataset)
		opt   Options
	}
	loads := []workload{
		{
			// Small buffer relative to the matrix so clustering yields many
			// clusters: enough schedule to cut, with real sharing at the
			// boundaries the planner severs.
			name: "vector-tight-buffer",
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 256})
				da, err := sys.AddVectors("a", randomVecs(400, 2, 31), VectorOptions{})
				if err != nil {
					t.Fatal(err)
				}
				db, err := sys.AddVectors("b", randomVecs(300, 2, 32), VectorOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return sys, da, db
			},
			opt: Options{Epsilon: 0.05, BufferPages: 12, CollectPairs: true, Parallelism: 4},
		},
		{
			// Self join: row and column pages share a file, so the planner's
			// page sets must dedup exactly like the executor's.
			name: "series-self",
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 1024})
				ds, err := sys.AddSeries("walk", dataset.RandomWalk(2500, 33), SeriesOptions{Window: 32, Stride: 4})
				if err != nil {
					t.Fatal(err)
				}
				return sys, ds, ds
			},
			opt: Options{Epsilon: 8.0, BufferPages: 16, CollectPairs: true},
		},
	}
	methods := []Method{SC, RandomSC, CC}
	workerCounts := []int{1, runtime.GOMAXPROCS(0)}

	for _, wl := range loads {
		t.Run(wl.name, func(t *testing.T) {
			sys, da, db := wl.build(t)
			for _, m := range methods {
				opt := wl.opt
				opt.Method = m
				base, err := sys.Join(da, db, opt)
				if err != nil {
					t.Fatalf("%v unsharded: %v", m, err)
				}
				for _, shards := range []int{1, 3} {
					var ref *Result
					for _, w := range workerCounts {
						o := opt
						o.Sharding = ShardingOptions{Shards: shards, Workers: w}
						res, err := sys.Join(da, db, o)
						if err != nil {
							t.Fatalf("%v shards=%d workers=%d: %v", m, shards, w, err)
						}
						if res.Exec.Shards == 0 {
							t.Fatalf("%v shards=%d: Exec.Shards not reported", m, shards)
						}
						if ref == nil {
							ref = res
							continue
						}
						if !reflect.DeepEqual(res.Report, ref.Report) {
							t.Errorf("%v shards=%d: Report differs between workers %d and %d:\n%+v\n%+v",
								m, shards, workerCounts[0], w, ref.Report, res.Report)
						}
						if !reflect.DeepEqual(res.Pairs, ref.Pairs) || res.Truncated != ref.Truncated {
							t.Errorf("%v shards=%d: Pairs differ between workers %d and %d",
								m, shards, workerCounts[0], w)
						}
					}
					if shards == 1 {
						if !reflect.DeepEqual(ref.Report, base.Report) {
							t.Errorf("%v: 1-shard Report differs from unsharded:\n%+v\n%+v",
								m, base.Report, ref.Report)
						}
						if !reflect.DeepEqual(ref.Pairs, base.Pairs) || ref.Truncated != base.Truncated {
							t.Errorf("%v: 1-shard Pairs differ from unsharded", m)
						}
					}
				}
			}

			// Plan: repeated sharded Explains are bit-identical, the sharding
			// block is populated, and clearing it recovers the unsharded plan
			// field for field — sharding only adds to the Plan.
			po := wl.opt
			po.Method = SC
			plain, err := sys.Explain(da, db, po)
			if err != nil {
				t.Fatal(err)
			}
			po.Sharding = ShardingOptions{Shards: 3}
			p1, err := sys.Explain(da, db, po)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := sys.Explain(da, db, po)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p1, p2) {
				t.Errorf("sharded Plan not deterministic:\n%+v\n%+v", p1, p2)
			}
			if len(p1.Shards) == 0 {
				t.Fatal("sharded Explain reported no shards")
			}
			var shardReads, shardClusters int64
			for _, sh := range p1.Shards {
				shardReads += sh.PredictedReads
				shardClusters += int64(sh.Clusters)
			}
			if shardClusters != int64(p1.Clusters) {
				t.Errorf("shards cover %d clusters, plan has %d", shardClusters, p1.Clusters)
			}
			// The planner dedups pages a cluster touches through both join
			// sides (a self-join shares the file), while ClusteredPageReads
			// counts per-side pages, so the deduped baseline is only bounded
			// above by the plan's clustered read estimate.
			if got := shardReads - p1.CutLostPages; got > p1.ClusteredPageReads-p1.ScheduleSavings {
				t.Errorf("sharded baseline %d > clustered reads %d - savings %d",
					got, p1.ClusteredPageReads, p1.ScheduleSavings)
			}
			p1.Shards, p1.CutLostPages, p1.CutPenaltySeconds = nil, 0, 0
			if !reflect.DeepEqual(p1, plain) {
				t.Errorf("sharding changed the unsharded Plan fields:\n%+v\n%+v", plain, p1)
			}
		})
	}
}

// TestUnshardedResultShape pins what running Shards 0 as one shard keeps from
// the unsharded executor: no shard counts in ExecStats, no per-shard metrics
// snapshots, and the cluster stats and trace events on the top-level
// snapshot itself. It also pins the modeled clocks ExecStats keeps: nothing
// is prefetched or overlapped, so one shard's wall clock is its serial clock,
// Report.IOSeconds + Report.CPUJoinSeconds; three shards run concurrently, so
// their wall clock is shorter than their serial one.
func TestUnshardedResultShape(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	res, err := sys.Join(da, db, Options{Method: SC, Epsilon: 0.1, BufferPages: 12, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec.Shards != 0 || res.Exec.ShardWorkers != 0 {
		t.Errorf("unsharded run reports %d shards on %d workers", res.Exec.Shards, res.Exec.ShardWorkers)
	}
	m := res.Metrics
	if m.Shards != nil {
		t.Errorf("unsharded run carries %d shard snapshots", len(m.Shards))
	}
	if len(m.Clusters) == 0 || len(m.Clusters) != res.Report.Clusters {
		t.Errorf("top-level snapshot has %d cluster stats for %d clusters", len(m.Clusters), res.Report.Clusters)
	}
	var starts int
	for _, ev := range m.Events {
		if ev.Kind == metrics.EvClusterStart {
			starts++
		}
	}
	if starts != len(m.Clusters) {
		t.Errorf("top-level trace has %d cluster starts for %d clusters", starts, len(m.Clusters))
	}

	ex := res.Exec
	if ex.PrefetchedPages != 0 || ex.OverlapIOSeconds != 0 {
		t.Errorf("unsharded run prefetched %d pages, overlapped %g s", ex.PrefetchedPages, ex.OverlapIOSeconds)
	}
	if ex.ModeledWallSeconds != ex.ModeledSerialSeconds {
		t.Errorf("modeled wall %g s, serial %g s", ex.ModeledWallSeconds, ex.ModeledSerialSeconds)
	}
	want := res.Report.IOSeconds + res.Report.CPUJoinSeconds
	if d := math.Abs(ex.ModeledSerialSeconds - want); want <= 0 || d > 1e-12*want {
		t.Errorf("modeled serial %g s, Report I/O + CPU-join %g s", ex.ModeledSerialSeconds, want)
	}

	sharded, err := sys.Join(da, db, Options{Method: SC, Epsilon: 0.1, BufferPages: 12,
		Sharding: ShardingOptions{Shards: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if ex := sharded.Exec; ex.ModeledWallSeconds >= ex.ModeledSerialSeconds {
		t.Errorf("3 shards: modeled wall %g s, not below serial %g s", ex.ModeledWallSeconds, ex.ModeledSerialSeconds)
	}
}

// TestShardedCC pins the sharded CC path's method label and cluster count:
// the merged report must still read "CC" and cover every cluster once.
func TestShardedCC(t *testing.T) {
	sys := NewSystem(DiskModel{PageBytes: 256})
	da, err := sys.AddVectors("a", randomVecs(300, 2, 34), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sys.AddVectors("b", randomVecs(200, 2, 35), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Method: CC, Epsilon: 0.05, BufferPages: 12}
	base, err := sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Sharding = ShardingOptions{Shards: 2}
	res, err := sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Method != "CC" {
		t.Errorf("sharded CC method = %q", res.Report.Method)
	}
	if res.Report.Clusters != base.Report.Clusters {
		t.Errorf("sharded CC clusters = %d, unsharded %d", res.Report.Clusters, base.Report.Clusters)
	}
	if res.Report.Results != base.Report.Results {
		t.Errorf("sharded CC results = %d, unsharded %d", res.Report.Results, base.Report.Results)
	}
}

// TestShardMetricsMerge checks the observational side: a sharded run carries
// one snapshot per shard, each with its own trace when tracing, per-shard
// cluster stats concatenated in shard-index order, and totals that include
// the shards' disk work — and tracing does not perturb Report or Pairs (the
// determinism contract).
func TestShardMetricsMerge(t *testing.T) {
	sys := NewSystem(DiskModel{PageBytes: 256})
	da, err := sys.AddVectors("a", randomVecs(300, 2, 36), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sys.AddVectors("b", randomVecs(200, 2, 37), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Method: SC, Epsilon: 0.05, BufferPages: 12, CollectPairs: true,
		Sharding: ShardingOptions{Shards: 2}}
	plainRes, err := sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Trace = true
	res, err := sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Report, plainRes.Report) || !reflect.DeepEqual(res.Pairs, plainRes.Pairs) {
		t.Fatal("tracing changed a sharded run's Report or Pairs")
	}
	mm := res.Metrics
	if len(mm.Shards) != res.Exec.Shards {
		t.Fatalf("%d shard snapshots, Exec.Shards=%d", len(mm.Shards), res.Exec.Shards)
	}
	var clusters int
	var reads int64
	for i, sn := range mm.Shards {
		if len(sn.Events) == 0 {
			t.Errorf("shard %d recorded no trace events", i)
		}
		clusters += len(sn.Clusters)
		reads += sn.Disk.Reads
	}
	if clusters != len(mm.Clusters) {
		t.Errorf("merged cluster stats %d != per-shard sum %d", len(mm.Clusters), clusters)
	}
	if mm.Disk.Reads < reads {
		t.Errorf("merged disk reads %d < shard sum %d", mm.Disk.Reads, reads)
	}
	if reads != res.Report.PageReads {
		t.Errorf("shard disk reads %d != report reads %d", reads, res.Report.PageReads)
	}
}

// TestPairsCapBoundaryShardedVsUnsharded pins the MaxPairs cap semantics at
// its boundary, sharded against unsharded: with the cap exactly at the total
// pair count both modes collect the same pair set and report Truncated=false;
// one below, both truncate to exactly the cap with Truncated=true; one above,
// neither truncates. Pair ORDER differs between the modes by design — the
// planner fixes each shard's order as the greedy schedule over that shard's
// own clusters, so the sharded emission order is the shard-index
// concatenation of those orders, not the global schedule — but within each
// mode a capped run returns an exact prefix of that mode's full emission
// order. The same holds for caps on both sides of a pair-chunk boundary,
// where the cap cuts a chunk inside a shard or in the merge.
func TestPairsCapBoundaryShardedVsUnsharded(t *testing.T) {
	sys := NewSystem(DiskModel{PageBytes: 256})
	da, err := sys.AddVectors("a", randomVecs(600, 2, 41), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sys.AddVectors("b", randomVecs(500, 2, 42), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Method: SC, Epsilon: 0.08, BufferPages: 12, CollectPairs: true}
	sharded := func(o Options) Options {
		o.Sharding = ShardingOptions{Shards: 3, Workers: 2}
		return o
	}

	// Learn the total pair count with an effectively unbounded cap.
	probe := base
	probe.MaxPairs = 1 << 30
	full, err := sys.Join(da, db, probe)
	if err != nil {
		t.Fatal(err)
	}
	total := len(full.Pairs)
	if full.Truncated || total <= join.ChunkPairs+1 {
		t.Fatalf("probe: %d pairs, truncated=%v", total, full.Truncated)
	}
	fullShard, err := sys.Join(da, db, sharded(probe))
	if err != nil {
		t.Fatal(err)
	}
	if fullShard.Truncated || len(fullShard.Pairs) != total {
		t.Fatalf("sharded probe: %d pairs, truncated=%v, want %d",
			len(fullShard.Pairs), fullShard.Truncated, total)
	}
	if !reflect.DeepEqual(sortedPairs(full.Pairs), sortedPairs(fullShard.Pairs)) {
		t.Fatal("sharded and unsharded full runs found different pair sets")
	}

	for _, tc := range []struct {
		name      string
		cap       int
		wantLen   int
		wantTrunc bool
	}{
		{"exactly-at-cap", total, total, false},
		{"one-under-cap", total - 1, total - 1, true},
		{"one-over-cap", total + 1, total, false},
		{"one-under-chunk", join.ChunkPairs - 1, join.ChunkPairs - 1, true},
		{"at-chunk", join.ChunkPairs, join.ChunkPairs, true},
		{"one-over-chunk", join.ChunkPairs + 1, join.ChunkPairs + 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := base
			opt.MaxPairs = tc.cap
			flat, err := sys.Join(da, db, opt)
			if err != nil {
				t.Fatal(err)
			}
			shrd, err := sys.Join(da, db, sharded(opt))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*Result{flat, shrd} {
				if len(r.Pairs) != tc.wantLen || r.Truncated != tc.wantTrunc {
					t.Fatalf("pairs=%d truncated=%v, want %d/%v",
						len(r.Pairs), r.Truncated, tc.wantLen, tc.wantTrunc)
				}
			}
			if !reflect.DeepEqual(flat.Pairs, full.Pairs[:tc.wantLen]) {
				t.Fatalf("unsharded capped pairs are not a prefix of its full emission order at cap %d", tc.cap)
			}
			if !reflect.DeepEqual(shrd.Pairs, fullShard.Pairs[:tc.wantLen]) {
				t.Fatalf("sharded capped pairs are not a prefix of its full emission order at cap %d", tc.cap)
			}
			if tc.wantLen == total {
				if !reflect.DeepEqual(sortedPairs(flat.Pairs), sortedPairs(shrd.Pairs)) {
					t.Fatalf("full collection pair sets diverge at cap %d", tc.cap)
				}
			}
		})
	}
}

// sortedPairs returns a copy of pairs in lexicographic order, for set
// comparison across emission orders.
func sortedPairs(pairs [][2]int) [][2]int {
	out := append([][2]int(nil), pairs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
