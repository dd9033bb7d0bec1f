package pmjoin

import (
	"fmt"
	"math"
	"runtime"

	"pmjoin/internal/predmat"
)

// ShardingOptions groups the sharded-execution knobs (see internal/shard):
// the cluster schedule is cut into Shards segments along minimum-sharing
// edges and each shard runs the clustered executor over its own cold disk
// session and private buffer pool, on up to Workers concurrent shard workers.
// Sharding applies to the clustered methods (RandomSC, SC, CC) only.
type ShardingOptions struct {
	// Shards is the number of shards the planner cuts the schedule into.
	// 0 (the default) is unsharded: the join runs as one shard, the global
	// schedule, and reports no shards (ExecStats.Shards 0, no per-shard
	// metrics snapshots). 1 runs the same single shard and reports it, so its
	// Report, Pairs and Plan are bit-identical to the unsharded run — the
	// seam TestShardDeterminism pins.
	Shards int
	// Workers bounds how many shards execute concurrently; 0 means
	// min(Shards, GOMAXPROCS). Like Parallelism, Report, Pairs and Plan are
	// bit-for-bit independent of this knob: shard results merge in
	// shard-index order regardless of completion order. Each in-flight shard
	// holds its own BufferPages-frame pool, so memory scales with Workers.
	Workers int
}

// Options configures one join execution. The zero value of every optional
// field selects its documented default; Validate (called by Join, Explain
// and their context variants) normalizes defaults in place and rejects
// out-of-range values.
type Options struct {
	Method Method
	// Epsilon is the distance threshold: an Lp distance for vector and
	// series data, a maximum edit distance for string data. Every method
	// applies the same test to an object pair a, b:
	//   - vector L2 and series: Σ(a−b)² ≤ fl(ε²), ε² rounded to float64;
	//   - the other vector norms: Dist(a, b) ≤ ε;
	//   - strings: edit distance ≤ ⌊ε⌋ (every pair once ε reaches the
	//     window length).
	Epsilon float64
	// BufferPages is B, the buffer size in pages (minimum 4).
	BufferPages int
	// Policy is the buffer replacement policy (default LRU).
	Policy ReplacementPolicy
	// Parallelism is the number of workers the executor may use for the
	// CPU side of the join (page-pair comparisons, plane-sweep pair tests
	// of the matrix build). 0 means GOMAXPROCS; 1 runs fully inline.
	// Results and every Report field are bit-for-bit independent of this
	// knob: I/O stays serialized in schedule order and worker results
	// merge in submission order (see DESIGN.md).
	Parallelism int
	// Seed drives the random choices of RandomSC and CC (deterministic).
	Seed int64
	// CollectPairs stores up to MaxPairs result pairs in the Result. Each
	// pair costs 16 bytes, held twice at the end of the join: in the pooled
	// chunks it is collected into and in the exact-size Result.Pairs they
	// are copied to. A sharded join collects up to MaxPairs pairs in every
	// shard before the merge re-caps them.
	CollectPairs bool
	// MaxPairs caps collected pairs. 0 means the default (100000);
	// negative values are rejected by Validate. Past the cap the join still
	// counts every result but stops turning them into pairs.
	MaxPairs int
	// FilterDepth bounds the prediction-matrix filter rounds k. 0 means the
	// default (5, the paper's k); a negative value disables filtering. The
	// filter runs at most k rounds and stops sooner when a round cannot pay
	// for itself.
	FilterDepth int
	// ClusterRowFraction is the SC buffer fraction devoted to rows
	// (default 0.5, the paper's square shape; ablation knob).
	ClusterRowFraction float64
	// HistogramBins is CC's density-histogram resolution (default 100).
	HistogramBins int
	// Trace records a ring of the newest 4096 typed events (phase and
	// cluster boundaries, evictions, seeks) in Result.Metrics, counting the
	// overwritten ones. Like ExecStats, the snapshot is outside the
	// determinism contract: tracing never changes Report, Pairs or Plan.
	Trace bool
	// Storage selects the physical page source (default: the in-memory
	// simulator). StorageFile requires a store attached to the System via
	// UseFileStore and serves page payloads from its real files, measuring
	// per-read wall latencies into ExecStats.MeasuredIOWall. Report, Pairs
	// and Plan are bit-for-bit independent of this knob.
	Storage StorageMode
	// Sharding selects sharded clustered execution (default: unsharded).
	Sharding ShardingOptions
}

// Validate checks the options and normalizes defaulted fields in place:
// MaxPairs 0 becomes 100000, Parallelism 0 becomes GOMAXPROCS,
// ClusterRowFraction 0 becomes 0.5, HistogramBins 0 becomes 100, and
// Sharding.Workers 0 becomes min(Shards, GOMAXPROCS) when sharding.
// Validate is idempotent; Join, JoinContext, Explain and ExplainContext call
// it on their own copy, so mutation is only observable when calling it
// directly.
func (o *Options) Validate() error {
	if !methodSpec.valid(o.Method) {
		return fmt.Errorf("pmjoin: unknown method %v", o.Method)
	}
	if o.BufferPages < 4 {
		return fmt.Errorf("pmjoin: buffer of %d pages too small (minimum 4)", o.BufferPages)
	}
	if o.Epsilon < 0 {
		return fmt.Errorf("pmjoin: negative epsilon %g", o.Epsilon)
	}
	if math.IsNaN(o.Epsilon) {
		return fmt.Errorf("pmjoin: epsilon is NaN")
	}
	if !policySpec.valid(o.Policy) {
		return fmt.Errorf("pmjoin: unknown replacement policy %v", o.Policy)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("pmjoin: negative parallelism %d", o.Parallelism)
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.MaxPairs < 0 {
		return fmt.Errorf("pmjoin: negative MaxPairs %d", o.MaxPairs)
	}
	if o.MaxPairs == 0 {
		o.MaxPairs = 100000
	}
	if o.FilterDepth == 0 {
		o.FilterDepth = predmat.DefaultFilterDepth
	}
	if o.ClusterRowFraction == 0 {
		o.ClusterRowFraction = 0.5
	}
	if o.ClusterRowFraction <= 0 || o.ClusterRowFraction >= 1 {
		return fmt.Errorf("pmjoin: cluster row fraction %g outside (0,1)", o.ClusterRowFraction)
	}
	if o.HistogramBins < 0 {
		return fmt.Errorf("pmjoin: negative histogram bins %d", o.HistogramBins)
	}
	if o.HistogramBins == 0 {
		o.HistogramBins = 100
	}
	if !storageSpec.valid(o.Storage) {
		return fmt.Errorf("pmjoin: unknown storage mode %v", o.Storage)
	}

	if o.Sharding.Shards < 0 {
		return fmt.Errorf("pmjoin: negative shard count %d", o.Sharding.Shards)
	}
	if o.Sharding.Workers < 0 {
		return fmt.Errorf("pmjoin: negative shard workers %d", o.Sharding.Workers)
	}
	if o.Sharding.Workers > 0 && o.Sharding.Shards == 0 {
		return fmt.Errorf("pmjoin: Sharding.Workers=%d without Sharding.Shards; set Shards >= 1 to shard", o.Sharding.Workers)
	}
	if o.Sharding.Shards > 0 {
		switch o.Method {
		case RandomSC, SC, CC:
		default:
			return fmt.Errorf("pmjoin: sharding requires a clustered method (random-SC, SC or CC), got %v", o.Method)
		}
		if o.Sharding.Workers == 0 {
			o.Sharding.Workers = o.Sharding.Shards
			if g := runtime.GOMAXPROCS(0); g < o.Sharding.Workers {
				o.Sharding.Workers = g
			}
		}
	}
	return nil
}
