package rstar

import (
	"math/rand"
	"sort"
	"testing"

	"pmjoin/internal/geom"
)

func TestDeleteRemovesAndPreservesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := randItems(rng, 400, 2)
	tr, _ := New(2, DefaultConfig(8))
	insertAll(t, tr, items)

	// Delete half the items in random order.
	perm := rng.Perm(len(items))
	for _, idx := range perm[:200] {
		found, err := tr.Delete(items[idx].ID, items[idx].MBR)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("item %d not found", items[idx].ID)
		}
	}
	if tr.Size() != 200 {
		t.Fatalf("size = %d", tr.Size())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Balance must hold after condensation.
	lo, hi := tr.MaxDepthSpread()
	if lo != hi {
		t.Fatalf("unbalanced: depths %d..%d", lo, hi)
	}
	// Remaining items are exactly the undeleted ones.
	all := geom.MBR{Min: geom.Vector{-1, -1}, Max: geom.Vector{2, 2}}
	got := tr.RangeSearch(all)
	sort.Ints(got)
	var want []int
	for _, idx := range perm[200:] {
		want = append(want, items[idx].ID)
	}
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("got %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("survivor mismatch at %d", i)
		}
	}
}

func TestDeleteMissingItem(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, _ := New(2, DefaultConfig(4))
	insertAll(t, tr, randItems(rng, 20, 2))
	found, err := tr.Delete(999, geom.NewMBR(geom.Vector{0.5, 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("phantom delete")
	}
	if tr.Size() != 20 {
		t.Fatal("size changed")
	}
}

func TestDeleteAllThenReinsert(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := randItems(rng, 100, 2)
	tr, _ := New(2, DefaultConfig(4))
	insertAll(t, tr, items)
	for _, it := range items {
		if ok, err := tr.Delete(it.ID, it.MBR); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", it.ID, ok, err)
		}
	}
	if tr.Size() != 0 {
		t.Fatalf("size = %d", tr.Size())
	}
	insertAll(t, tr, items)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.RangeSearch(geom.MBR{Min: geom.Vector{0, 0}, Max: geom.Vector{1, 1}}); len(got) != 100 {
		t.Fatalf("after reinsert: %d items", len(got))
	}
}

func TestDeleteAfterPackFails(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := randItems(rng, 20, 2)
	tr, _ := New(2, DefaultConfig(4))
	insertAll(t, tr, items)
	tr.Pack()
	if _, err := tr.Delete(items[0].ID, items[0].MBR); err == nil {
		t.Fatal("delete after pack accepted")
	}
}

func TestInterleavedInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, _ := New(3, DefaultConfig(6))
	live := map[int]Item{}
	nextID := 0
	for step := 0; step < 2000; step++ {
		if rng.Float64() < 0.6 || len(live) == 0 {
			v := make(geom.Vector, 3)
			for d := range v {
				v[d] = rng.Float64()
			}
			it := PointItem(nextID, v)
			nextID++
			if err := tr.Insert(it); err != nil {
				t.Fatal(err)
			}
			live[it.ID] = it
		} else {
			var victim Item
			for _, it := range live {
				victim = it
				break
			}
			ok, err := tr.Delete(victim.ID, victim.MBR)
			if err != nil || !ok {
				t.Fatalf("delete %d: %v %v", victim.ID, ok, err)
			}
			delete(live, victim.ID)
		}
		if step%250 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if tr.Size() != len(live) {
		t.Fatalf("size %d, live %d", tr.Size(), len(live))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNearestNeighborsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	items := randItems(rng, 500, 2)
	tr, _ := BulkLoadSTR(2, DefaultConfig(8), items)
	for iter := 0; iter < 40; iter++ {
		q := geom.Vector{rng.Float64(), rng.Float64()}
		k := 1 + rng.Intn(10)
		got := tr.NearestNeighbors(q, k, geom.L2)
		if len(got) != k {
			t.Fatalf("got %d of %d neighbors", len(got), k)
		}
		// Brute force.
		type dn struct {
			id int
			d  float64
		}
		var all []dn
		for _, it := range items {
			all = append(all, dn{id: it.ID, d: geom.L2.Dist(q, it.MBR.Min)})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
		for i := 0; i < k; i++ {
			if diff := got[i].Dist - all[i].d; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("iter %d: neighbor %d dist %g, want %g", iter, i, got[i].Dist, all[i].d)
			}
		}
		// Ascending order.
		for i := 1; i < k; i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Fatal("neighbors not sorted")
			}
		}
	}
}

func TestNearestNeighborsEdgeCases(t *testing.T) {
	tr, _ := New(2, DefaultConfig(4))
	if got := tr.NearestNeighbors(geom.Vector{0, 0}, 3, geom.L2); got != nil {
		t.Fatal("empty tree")
	}
	tr.Insert(PointItem(0, geom.Vector{1, 1}))
	if got := tr.NearestNeighbors(geom.Vector{0, 0}, 0, geom.L2); got != nil {
		t.Fatal("k=0")
	}
	got := tr.NearestNeighbors(geom.Vector{0, 0}, 5, geom.L2)
	if len(got) != 1 || got[0].Item.ID != 0 {
		t.Fatalf("k>size: %v", got)
	}
}

func TestDistanceRangeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := randItems(rng, 400, 2)
	tr, _ := BulkLoadSTR(2, DefaultConfig(8), items)
	for iter := 0; iter < 30; iter++ {
		q := geom.Vector{rng.Float64(), rng.Float64()}
		eps := 0.02 + rng.Float64()*0.1
		got := tr.DistanceRange(q, eps, geom.L2)
		sort.Ints(got)
		var want []int
		for _, it := range items {
			if geom.L2.Dist(q, it.MBR.Min) <= eps {
				want = append(want, it.ID)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d results, want %d", iter, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatal("range result mismatch")
			}
		}
	}
}

// TestMutateAfterBulkLoad inserts into and deletes from a bulk-loaded tree.
// The bulk loader's nodes are windows of one shared entry array, so a node
// that grows must move out of it and a node that shrinks must stay inside
// its own window; either mistake corrupts a sibling, which range search
// against brute force would show.
func TestMutateAfterBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	items := randItems(rng, 600, 2)
	tr, err := BulkLoadSTR(2, DefaultConfig(8), items[:400])
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[int]Item)
	for _, it := range items[:400] {
		live[it.ID] = it
	}
	for step, it := range items[400:] {
		if err := tr.Insert(it); err != nil {
			t.Fatal(err)
		}
		live[it.ID] = it
		victim := items[rng.Intn(400+step)]
		if _, ok := live[victim.ID]; ok {
			if found, err := tr.Delete(victim.ID, victim.MBR); err != nil || !found {
				t.Fatalf("step %d: delete %d: found=%v err=%v", step, victim.ID, found, err)
			}
			delete(live, victim.ID)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != len(live) {
		t.Fatalf("size %d, want %d", tr.Size(), len(live))
	}
	for iter := 0; iter < 30; iter++ {
		q := geom.MBR{Min: geom.Vector{rng.Float64() * 0.8, rng.Float64() * 0.8}}
		q.Max = geom.Vector{q.Min[0] + 0.2, q.Min[1] + 0.2}
		got := tr.RangeSearch(q)
		sort.Ints(got)
		var want []int
		for id, it := range live {
			if it.MBR.Intersects(q) {
				want = append(want, id)
			}
		}
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", iter, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d: result %d is item %d, want %d", iter, i, got[i], want[i])
			}
		}
	}
}
