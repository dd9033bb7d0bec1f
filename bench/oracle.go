package main

import (
	"math/rand"
	"sort"

	"pmjoin/internal/seqdist"
)

// oracleSample is how many R objects the oracle brute-forces against all of S.
const oracleSample = 64

// oracle checks Theorem 1 (no false dismissals, no false hits) on a sample:
// for 64 seed-drawn R objects — half uniform, half drawn from the objects the
// join reported, so both empty and non-empty neighbourhoods are covered — the
// join's pairs restricted to those objects must equal a brute-force scan of S
// written here with plain loops.
func (lib *libRun) oracle(pairs [][2]int) {
	rng := rand.New(rand.NewSource(subSeed(lib.cfg.seed, 2)))
	nR := lib.fx.a.Objects()
	var ids []int
	for i := 0; i < oracleSample/2; i++ {
		ids = append(ids, rng.Intn(nR))
	}
	if matched := distinctLeft(pairs); len(matched) > 0 {
		for i := 0; i < oracleSample/2; i++ {
			ids = append(ids, matched[rng.Intn(len(matched))])
		}
	}
	sort.Ints(ids)
	ids = dedupSorted(ids)

	var got [][2]int
	for _, p := range pairs {
		if k := sort.SearchInts(ids, p[0]); k < len(ids) && ids[k] == p[0] {
			got = append(got, p)
		}
	}
	var want [][2]int
	for _, id := range ids {
		for _, j := range lib.bruteForce(id) {
			want = append(want, [2]int{id, j})
		}
	}
	sortPairs(got)
	sortPairs(want)
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == want[i]
	}
	lib.r.check(same, "oracle: join reports %d pairs for %d sampled R objects, brute force finds %d",
		len(got), len(ids), len(want))
}

// bruteForce returns every S object within ε₀ of R object id.
func (lib *libRun) bruteForce(id int) []int {
	in, eps := lib.fx.in, lib.spec.opt.Epsilon
	var out []int
	if !in.isString() {
		// Squared L2 against fl(ε²), summed in dimension order: the join's
		// documented vector predicate.
		p, limit := in.vecA[id], eps*eps
		for j, q := range in.vecB {
			var sum float64
			for d := range p {
				x := p[d] - q[d]
				sum += x * x
			}
			if sum <= limit {
				out = append(out, j)
			}
		}
		return out
	}
	maxEdit := int(eps)
	w := windowAt(in.seqA, id, in)
	band := newEditBand(in.window)
	for j := 0; j < lib.fx.b.Objects(); j++ {
		v := windowAt(in.seqB, j, in)
		// The banded scan only rules pairs out; a hit must also hold under
		// the full dynamic program.
		if band.within(w, v, maxEdit) && seqdist.EditDistance(w, v) <= maxEdit {
			out = append(out, j)
		}
	}
	return out
}

// windowAt is window i of a strided subsequence dataset: ids number windows
// in position order.
func windowAt(seq []byte, i int, in *inputs) []byte {
	return seq[i*in.stride : i*in.stride+in.window]
}

// editBand is scratch for a banded edit-distance test.
type editBand struct{ prev, cur []int }

func newEditBand(maxLen int) *editBand {
	return &editBand{make([]int, maxLen+2), make([]int, maxLen+2)}
}

// within reports whether the edit distance of a and b can be at most k: the
// unit-cost dynamic program restricted to the diagonals |i-j| <= k, abandoned
// at the first row whose every band cell exceeds k. It never says no to a
// pair within k edits (an optimal alignment within k edits stays inside the
// band, and row minima never decrease).
func (e *editBand) within(a, b []byte, k int) bool {
	const inf = 1 << 30
	n, m := len(a), len(b)
	if n-m > k || m-n > k {
		return false
	}
	prev, cur := e.prev[:m+2], e.cur[:m+2]
	for j := 0; j <= m+1; j++ {
		prev[j] = inf
		if j <= k {
			prev[j] = j
		}
	}
	for i := 1; i <= n; i++ {
		lo, hi := i-k, i+k
		if lo < 1 {
			lo = 1
		}
		if hi > m {
			hi = m
		}
		cur[lo-1] = inf
		if lo == 1 && i <= k {
			cur[0] = i
		}
		best := cur[lo-1]
		for j := lo; j <= hi; j++ {
			c := prev[j-1]
			if a[i-1] != b[j-1] {
				c++
			}
			if prev[j]+1 < c {
				c = prev[j] + 1
			}
			if cur[j-1]+1 < c {
				c = cur[j-1] + 1
			}
			cur[j] = c
			if c < best {
				best = c
			}
		}
		cur[hi+1] = inf
		if best > k {
			return false
		}
		prev, cur = cur, prev
	}
	return prev[m] <= k
}

// distinctLeft returns the ascending distinct R ids of pairs.
func distinctLeft(pairs [][2]int) []int {
	ids := make([]int, len(pairs))
	for i, p := range pairs {
		ids[i] = p[0]
	}
	sort.Ints(ids)
	return dedupSorted(ids)
}

func dedupSorted(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func sortPairs(ps [][2]int) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}
