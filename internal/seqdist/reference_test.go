package seqdist

import (
	"math"
	"math/rand"
	"testing"
)

// refEditDistanceBounded is the first-written EditDistanceBounded: the
// row-by-row DP over the band |i−j| ≤ bound with a row-minimum cutoff and
// two freshly allocated rows per call. It is the oracle the bit-parallel
// band and its diagonal-coordinate fallback must reproduce, (distance, ok)
// for (distance, ok), and lives only here. It indexes out of range for
// bound ≥ MaxInt−1 (i+bound overflows), so callers clamp the bound first.
func refEditDistanceBounded(a, b []byte, bound int) (int, bool) {
	if bound < 0 {
		return 0, false
	}
	diff := len(a) - len(b)
	if diff < 0 {
		diff = -diff
	}
	if diff > bound {
		return bound + 1, false
	}
	if len(a) == 0 {
		return len(b), len(b) <= bound
	}
	if len(b) == 0 {
		return len(a), len(a) <= bound
	}
	const inf = int(^uint(0) >> 2)
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := 0; j <= len(b); j++ {
		if j <= bound {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= len(a); i++ {
		lo := i - bound
		if lo < 1 {
			lo = 1
		}
		hi := i + bound
		if hi > len(b) {
			hi = len(b)
		}
		if lo > 1 {
			cur[lo-1] = inf
		} else {
			cur[0] = i
		}
		ai := a[i-1]
		rowMin := inf
		for j := lo; j <= hi; j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost
			if prev[j]+1 < m {
				m = prev[j] + 1
			}
			if j > lo || lo == 1 {
				if cur[j-1]+1 < m {
					m = cur[j-1] + 1
				}
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if hi < len(b) {
			cur[hi+1] = inf
		}
		if rowMin > bound {
			return bound + 1, false
		}
		prev, cur = cur, prev
	}
	d := prev[len(b)]
	if d > bound {
		return bound + 1, false
	}
	return d, true
}

// randSeq draws n symbols of alphabet.
func randSeq(rng *rand.Rand, alphabet string, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return out
}

// mutate returns a copy of s after edits random substitutions, insertions
// and deletions over alphabet.
func mutate(rng *rand.Rand, s []byte, alphabet string, edits int) []byte {
	out := append([]byte(nil), s...)
	for e := 0; e < edits; e++ {
		pos := rng.Intn(len(out) + 1)
		c := alphabet[rng.Intn(len(alphabet))]
		switch op := rng.Intn(3); {
		case op == 0 && pos < len(out):
			out[pos] = c
		case op == 1 || len(out) == 0:
			out = append(out[:pos], append([]byte{c}, out[pos:]...)...)
		case pos < len(out):
			out = append(out[:pos], out[pos+1:]...)
		}
	}
	return out
}

// TestEditDistanceBoundedMatchesReference holds EditDistanceBounded to the
// seed DP over both of its paths: the one-word band (k ≤ 31, at most
// maxBandSymbols symbols) and the diagonal DP (k ≥ 32, or the 36-symbol
// alphabet), on near pairs (a few edits apart), mutated pairs (about k
// edits apart, straddling the bound) and far pairs (independent draws), at
// lengths 0–1 200 and bounds up to MaxInt.
func TestEditDistanceBoundedMatchesReference(t *testing.T) {
	alphabets := []string{"ACGT", "ACGTN", "AB", "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"}
	bounds := []int{0, 1, 2, 3, 5, 8, 13, 20, 30, 31, 32, 33, 40}
	rng := rand.New(rand.NewSource(1))
	length := func() int {
		switch r := rng.Intn(20); {
		case r == 0:
			return rng.Intn(1201)
		case r < 6:
			return rng.Intn(300)
		default:
			return rng.Intn(70)
		}
	}
	check := func(a, b []byte, bound int) {
		t.Helper()
		// The reference overflows near MaxInt; no distance exceeds
		// len(a)+len(b), so that bound gives it the same answer.
		want, wantOK := refEditDistanceBounded(a, b, min(bound, len(a)+len(b)))
		if !wantOK {
			want = bound + 1
		}
		if got, ok := EditDistanceBounded(a, b, bound); got != want || ok != wantOK {
			t.Fatalf("EditDistanceBounded(%q, %q, %d) = (%d, %v), reference (%d, %v)",
				a, b, bound, got, ok, want, wantOK)
		}
	}
	cases := 3000
	if testing.Short() {
		cases = 500
	}
	for c := 0; c < cases; c++ {
		alphabet := alphabets[c%len(alphabets)]
		k := bounds[rng.Intn(len(bounds))]
		a := randSeq(rng, alphabet, length())
		var b []byte
		switch c / len(alphabets) % 3 {
		case 0: // near
			b = mutate(rng, a, alphabet, rng.Intn(k/2+2))
		case 1: // mutated: straddles the bound
			b = mutate(rng, a, alphabet, k-1+rng.Intn(4))
		default: // far
			b = randSeq(rng, alphabet, max(0, len(a)+rng.Intn(2*k+3)-k-1))
		}
		check(a, b, k)
		check(b, a, k)
	}
	for _, bound := range []int{math.MaxInt, math.MaxInt - 1, math.MaxInt - 2, 1 << 40} {
		for _, alphabet := range alphabets {
			a := randSeq(rng, alphabet, length())
			check(a, mutate(rng, a, alphabet, 3), bound)
			check(a, randSeq(rng, alphabet, length()), bound)
		}
	}
}

// TestEditDistanceBoundedAllocatesNothing pins the verification step of the
// string join to zero allocations at its shape: windows of 500, k = 5.
func TestEditDistanceBoundedAllocatesNothing(t *testing.T) {
	near, far := benchPairs(500)
	for _, tc := range []struct {
		name string
		a, b []byte
	}{{"near", near[0], near[1]}, {"far", far[0], far[1]}} {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(100, func() { EditDistanceBounded(tc.a, tc.b, 5) }); allocs != 0 {
				t.Errorf("%v allocations per call, want 0", allocs)
			}
		})
	}
}
