package sched

import (
	"testing"
	"testing/quick"
)

// TestQuickGreedyOrderProperties: for arbitrary cluster page sets, the
// greedy order is a permutation (Lemma 3) and never saves fewer page reads
// than the identity order minus slack — concretely, savings are bounded by
// the total shareable weight.
func TestQuickGreedyOrderProperties(t *testing.T) {
	f := func(raw [][3]uint8) bool {
		if len(raw) > 24 {
			raw = raw[:24]
		}
		sets := make([]PageSet, len(raw))
		for i, r := range raw {
			sets[i] = pageSet(int(r[0]%16), int(r[1]%16), int(r[2]%16))
		}
		edges := SharingGraph(sets)
		order := GreedyOrder(len(sets), edges)
		if len(order) != len(sets) {
			return false
		}
		seen := make([]bool, len(sets))
		for _, v := range order {
			if v < 0 || v >= len(sets) || seen[v] {
				return false
			}
			seen[v] = true
		}
		// Savings can never exceed the sum of all edge weights.
		total := 0
		for _, e := range edges {
			total += e.Weight
		}
		s := PathSavings(sets, order)
		return s >= 0 && s <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSharingGraphSymmetricWeights: edge weights equal the true
// intersection sizes regardless of set ordering.
func TestQuickSharingGraphSymmetricWeights(t *testing.T) {
	f := func(a, b []uint8) bool {
		var inA, inB [32]bool
		var pa, pb []int
		for _, p := range a {
			inA[p%32] = true
			pa = append(pa, int(p%32))
		}
		for _, p := range b {
			inB[p%32] = true
			pb = append(pb, int(p%32))
		}
		shared := 0
		for p := range inA {
			if inA[p] && inB[p] {
				shared++
			}
		}
		sa, sb := pageSet(pa...), pageSet(pb...)
		e1 := SharingGraph([]PageSet{sa, sb})
		e2 := SharingGraph([]PageSet{sb, sa})
		w1, w2 := 0, 0
		if len(e1) == 1 {
			w1 = e1[0].Weight
		}
		if len(e2) == 1 {
			w2 = e2[0].Weight
		}
		return w1 == shared && w2 == shared
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
