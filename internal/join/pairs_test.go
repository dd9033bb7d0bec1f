package join

import (
	"fmt"
	"reflect"
	"testing"
)

// refPairs is the per-pair collector the engine called before pairs moved
// to chunks: append while under the cap, and flag every pair past it.
type refPairs struct {
	max       int
	pairs     [][2]int
	truncated bool
}

func (r *refPairs) add(i, j int) {
	if len(r.pairs) < r.max {
		r.pairs = append(r.pairs, [2]int{i, j})
	} else {
		r.truncated = true
	}
}

// pairRuns is a stream of comparison runs' outputs whose sizes straddle the
// chunk size on both sides, with empty and one-pair runs between them.
func pairRuns() [][][2]int {
	var runs [][][2]int
	id := 0
	for _, n := range []int{3, 0, ChunkPairs - 1, 1, ChunkPairs, 17, ChunkPairs + 1, 0, 2*ChunkPairs + 5, 1, ChunkPairs / 2, ChunkPairs/2 + 1, 9} {
		run := make([][2]int, n)
		for k := range run {
			run[k] = [2]int{id, id + 1}
			id++
		}
		runs = append(runs, run)
	}
	return runs
}

// collectRuns feeds runs to p the way the executor does: each run translated
// into chunks of its own unless p was full when it opened, then linked with
// its match count. Every third run goes through Add instead, the Exec.Emit
// path.
func collectRuns(p *Pairs, runs [][][2]int) {
	for i, run := range runs {
		if i%3 == 2 {
			for _, pr := range run {
				p.Add(pr[0], pr[1])
			}
			continue
		}
		var out pairChunks
		if !p.full() {
			for _, pr := range run {
				out.add(pr[0], pr[1])
			}
		}
		p.link(out, int64(len(run)))
	}
}

// TestPairsCapsMatchReference holds the chunked collector to the per-pair
// reference at caps on both sides of a chunk boundary and of the total, and
// at the end of the third run, which fills the collector exactly so that the
// fourth skips translation; for one collector and for three (shards) merged
// under the same cap.
func TestPairsCapsMatchReference(t *testing.T) {
	runs := pairRuns()
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	atRun := len(runs[0]) + len(runs[1]) + len(runs[2])
	for _, maxPairs := range []int{1, ChunkPairs - 1, ChunkPairs, ChunkPairs + 1, atRun, total - 1, total, total + 1} {
		t.Run(fmt.Sprintf("cap=%d", maxPairs), func(t *testing.T) {
			ref := &refPairs{max: maxPairs}
			for _, run := range runs {
				for _, pr := range run {
					ref.add(pr[0], pr[1])
				}
			}
			p := NewPairs(maxPairs)
			collectRuns(p, runs)
			if p.n != len(ref.pairs) || p.truncated != ref.truncated {
				t.Fatalf("collector kept %d (truncated %v), reference %d (%v)", p.n, p.truncated, len(ref.pairs), ref.truncated)
			}
			got, truncated := MergePairs([]*Pairs{p}, maxPairs)
			if !reflect.DeepEqual(got, ref.pairs) || truncated != ref.truncated {
				t.Fatalf("merged %d pairs (truncated %v), reference %d (%v)", len(got), truncated, len(ref.pairs), ref.truncated)
			}

			// Three shards, each capped locally, re-capped by the merge.
			var shards []*Pairs
			var want [][2]int
			wantTrunc := false
			for lo := 0; lo < len(runs); lo += 5 {
				part := runs[lo:min(lo+5, len(runs))]
				sref := &refPairs{max: maxPairs}
				for _, run := range part {
					for _, pr := range run {
						sref.add(pr[0], pr[1])
					}
				}
				want = append(want, sref.pairs...)
				wantTrunc = wantTrunc || sref.truncated
				sp := NewPairs(maxPairs)
				collectRuns(sp, part)
				shards = append(shards, sp)
			}
			if len(want) > maxPairs {
				want, wantTrunc = want[:maxPairs], true
			}
			got, truncated = MergePairs(shards, maxPairs)
			if !reflect.DeepEqual(got, want) || truncated != wantTrunc {
				t.Fatalf("sharded merge: %d pairs (truncated %v), reference %d (%v)", len(got), truncated, len(want), wantTrunc)
			}
		})
	}
}

// TestMergePairsNilWhenEmpty pins the Result.Pairs shape: nothing kept is a
// nil slice, not an empty one.
func TestMergePairsNilWhenEmpty(t *testing.T) {
	p := NewPairs(10)
	p.link(pairChunks{newChunk()}, 0)
	if got, truncated := MergePairs([]*Pairs{p, NewPairs(10)}, 10); got != nil || truncated {
		t.Fatalf("got %v (truncated %v), want nil", got, truncated)
	}
}
