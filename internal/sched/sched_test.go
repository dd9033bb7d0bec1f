package sched

import (
	"math/rand"
	"testing"
)

// pageSet builds the page set of the given pages of file 0 (NewPageSet sorts
// and dedups a self join's pages, so they may come unsorted and repeated).
func pageSet(pages ...int) PageSet {
	return NewPageSet(0, nil, 0, pages)
}

func TestSharingGraphWeights(t *testing.T) {
	sets := []PageSet{
		pageSet(1, 2, 3),
		pageSet(2, 3, 4),
		pageSet(9),
	}
	edges := SharingGraph(sets)
	if len(edges) != 1 {
		t.Fatalf("edges = %v", edges)
	}
	e := edges[0]
	if e.A != 0 || e.B != 1 || e.Weight != 2 {
		t.Fatalf("edge = %+v", e)
	}
}

func TestPathSavingsMatchesExample(t *testing.T) {
	// Example 2 of the paper, abstracted: different orders give different
	// savings equal to summed consecutive overlaps (Lemma 4).
	sets := []PageSet{
		pageSet(1, 2, 3),    // c1
		pageSet(3, 4),       // c2
		pageSet(4, 5),       // c3
		pageSet(5, 6, 1),    // c4
		pageSet(10, 11, 12), // c5: isolated
	}
	if got := PathSavings(sets, []int{0, 1, 2, 3, 4}); got != 3 {
		t.Fatalf("savings = %d, want 3", got)
	}
	if got := PathSavings(sets, []int{4, 0, 1, 2, 3}); got != 3 {
		t.Fatalf("savings = %d", got)
	}
	if got := PathSavings(sets, []int{0, 2, 4, 1, 3}); got != 0 {
		t.Fatalf("disconnected order savings = %d", got)
	}
}

func isPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// TestGreedyOrderIsPermutation is Lemma 3: every cluster appears exactly
// once, over many random sharing structures.
func TestGreedyOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(40)
		sets := make([]PageSet, n)
		for i := range sets {
			var pages []int
			for k := 0; k < 1+rng.Intn(6); k++ {
				pages = append(pages, rng.Intn(30))
			}
			sets[i] = pageSet(pages...)
		}
		order := GreedyOrder(n, SharingGraph(sets))
		if !isPermutation(order, n) {
			t.Fatalf("iter %d: order %v is not a permutation of %d", iter, order, n)
		}
	}
}

func TestGreedyOrderEmptyAndSingle(t *testing.T) {
	if got := GreedyOrder(0, nil); got != nil {
		t.Fatalf("empty = %v", got)
	}
	if got := GreedyOrder(1, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single = %v", got)
	}
}

// TestGreedyBeatsRandomOnAverage: the greedy schedule must save at least as
// many page reads as random orders on structured inputs.
func TestGreedyBeatsRandomOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var greedyTotal, randomTotal int
	for iter := 0; iter < 20; iter++ {
		n := 12
		sets := make([]PageSet, n)
		for i := range sets {
			sets[i] = pageSet(i, i+1, i+2, rng.Intn(30)) // chain structure
		}
		edges := SharingGraph(sets)
		greedyTotal += PathSavings(sets, GreedyOrder(n, edges))
		randomTotal += PathSavings(sets, RandomOrder(n, int64(iter)))
	}
	if greedyTotal <= randomTotal {
		t.Fatalf("greedy savings %d <= random %d", greedyTotal, randomTotal)
	}
}

func TestGreedyPicksHeaviestEdgeFirst(t *testing.T) {
	// Three clusters: 0-1 share 5 pages, 1-2 share 1; the path must place 0
	// and 1 adjacent.
	sets := []PageSet{
		pageSet(1, 2, 3, 4, 5, 10),
		pageSet(1, 2, 3, 4, 5, 20),
		pageSet(20, 30),
	}
	order := GreedyOrder(3, SharingGraph(sets))
	pos := make(map[int]int)
	for i, v := range order {
		pos[v] = i
	}
	d := pos[0] - pos[1]
	if d != 1 && d != -1 {
		t.Fatalf("heaviest pair not adjacent in %v", order)
	}
	if got := PathSavings(sets, order); got != 6 {
		t.Fatalf("savings = %d, want 6", got)
	}
}

func TestGreedyAvoidsDegreeThree(t *testing.T) {
	// A star: center 0 shares with 1, 2, 3. A path can use at most two of
	// the star edges.
	sets := []PageSet{
		pageSet(1, 2, 3),
		pageSet(1, 10),
		pageSet(2, 20),
		pageSet(3, 30),
	}
	order := GreedyOrder(4, SharingGraph(sets))
	if !isPermutation(order, 4) {
		t.Fatalf("order = %v", order)
	}
	if got := PathSavings(sets, order); got != 2 {
		t.Fatalf("savings = %d, want 2 (two star edges)", got)
	}
}

func TestRandomOrderDeterministicInSeed(t *testing.T) {
	a := RandomOrder(10, 5)
	b := RandomOrder(10, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random order not deterministic in seed")
		}
	}
	if !isPermutation(a, 10) {
		t.Fatal("random order not a permutation")
	}
}
