package sched

// The seed scheduling algorithms over map-keyed page sets, kept as test
// oracles: SharingGraph, GreedyOrder and StepSavings must give exactly their
// edges, orders and steps on every input.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"pmjoin/internal/cluster"
	"pmjoin/internal/disk"
	"pmjoin/internal/predmat"
)

// refSet is the seed's page set representation: a hash set of addresses.
type refSet map[disk.PageAddr]struct{}

// toPageSet converts a reference set into a PageSet (sorted, distinct).
func toPageSet(s refSet) PageSet {
	ps := make(PageSet, 0, len(s))
	for a := range s {
		ps = append(ps, a)
	}
	slices.SortFunc(ps, comparePages)
	return ps
}

func toPageSets(sets []refSet) []PageSet {
	out := make([]PageSet, len(sets))
	for i, s := range sets {
		out[i] = toPageSet(s)
	}
	return out
}

// refClusterSet is the seed executor's page set of one cluster: rows keyed on
// rFile, cols on sFile, one map (so a self join's equal row and col collapse).
func refClusterSet(rFile disk.FileID, rows []int, sFile disk.FileID, cols []int) refSet {
	s := make(refSet, len(rows)+len(cols))
	for _, p := range rows {
		s[disk.PageAddr{File: rFile, Page: p}] = struct{}{}
	}
	for _, p := range cols {
		s[disk.PageAddr{File: sFile, Page: p}] = struct{}{}
	}
	return s
}

// sharingGraphMapRef is the map-based SharingGraph: pairwise weights via
// per-element map probes (hash work per (pair, element)). It is the oracle of
// the differential tests and the "before" side of BenchmarkSharingGraph.
func sharingGraphMapRef(pages []refSet) []Edge {
	var edges []Edge
	for i := range pages {
		for j := i + 1; j < len(pages); j++ {
			a, b := pages[i], pages[j]
			if len(b) < len(a) {
				a, b = b, a
			}
			w := 0
			for p := range a {
				if _, ok := b[p]; ok {
					w++
				}
			}
			if w > 0 {
				edges = append(edges, Edge{A: i, B: j, Weight: w})
			}
		}
	}
	return edges
}

// refStepSavings is the seed StepSavings: map probes per step.
func refStepSavings(pages []refSet, order []int) []int {
	steps := make([]int, len(order))
	for i := 1; i < len(order); i++ {
		a, b := pages[order[i-1]], pages[order[i]]
		if len(b) < len(a) {
			a, b = b, a
		}
		for p := range a {
			if _, ok := b[p]; ok {
				steps[i]++
			}
		}
	}
	return steps
}

// refGreedyOrder is the seed GreedyOrder: a stable sort of the edges by
// (weight desc, A, B), then the same path construction.
func refGreedyOrder(n int, edges []Edge) []int {
	if n == 0 {
		return nil
	}
	sorted := append([]Edge(nil), edges...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Weight != sorted[j].Weight {
			return sorted[i].Weight > sorted[j].Weight
		}
		if sorted[i].A != sorted[j].A {
			return sorted[i].A < sorted[j].A
		}
		return sorted[i].B < sorted[j].B
	})
	degree := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	adj := make([][]int, n)
	for _, e := range sorted {
		if degree[e.A] >= 2 || degree[e.B] >= 2 {
			continue
		}
		ra, rb := find(e.A), find(e.B)
		if ra == rb {
			continue
		}
		parent[ra] = rb
		degree[e.A]++
		degree[e.B]++
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	visited := make([]bool, n)
	var order []int
	for v := 0; v < n; v++ {
		if visited[v] || degree[v] > 1 {
			continue
		}
		cur, prev := v, -1
		for cur != -1 {
			visited[cur] = true
			order = append(order, cur)
			next := -1
			for _, nb := range adj[cur] {
				if nb != prev && !visited[nb] {
					next = nb
					break
				}
			}
			prev, cur = cur, next
		}
	}
	for v := 0; v < n; v++ {
		if !visited[v] {
			visited[v] = true
			order = append(order, v)
		}
	}
	return order
}

// assertMatchesReference runs the whole schedule — graph, greedy order, and
// the steps over it and over a random order — through both sides.
func assertMatchesReference(t *testing.T, what string, ref []refSet) {
	t.Helper()
	pages := toPageSets(ref)
	edges, wantEdges := SharingGraph(pages), sharingGraphMapRef(ref)
	if !reflect.DeepEqual(edges, wantEdges) {
		t.Fatalf("%s: edges differ\n got %v\nwant %v", what, edges, wantEdges)
	}
	order, wantOrder := GreedyOrder(len(pages), edges), refGreedyOrder(len(ref), wantEdges)
	if !slices.Equal(order, wantOrder) {
		t.Fatalf("%s: order %v, oracle %v", what, order, wantOrder)
	}
	for _, o := range [][]int{order, RandomOrder(len(pages), int64(len(pages)))} {
		if got, want := StepSavings(pages, o), refStepSavings(ref, o); !slices.Equal(got, want) {
			t.Fatalf("%s: steps %v, oracle %v", what, got, want)
		}
		if got, want := PathSavings(pages, o), sum(refStepSavings(ref, o)); got != want {
			t.Fatalf("%s: path savings %d, oracle %d", what, got, want)
		}
	}
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// TestScheduleMatchesReferenceRandomSets: random page sets over one or two
// files, including empty sets, singletons and identical sets.
func TestScheduleMatchesReferenceRandomSets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(30)
		files := 1 + rng.Intn(2)
		universe := 1 + rng.Intn(60)
		ref := make([]refSet, n)
		for i := range ref {
			ref[i] = refSet{}
			switch {
			case i > 0 && rng.Intn(8) == 0: // a duplicate of the previous set
				for a := range ref[i-1] {
					ref[i][a] = struct{}{}
				}
			case rng.Intn(10) == 0: // empty
			default:
				for k := rng.Intn(12); k >= 0; k-- {
					ref[i][disk.PageAddr{File: disk.FileID(3 + 4*rng.Intn(files)), Page: rng.Intn(universe)}] = struct{}{}
				}
			}
		}
		assertMatchesReference(t, fmt.Sprintf("iter %d", iter), ref)
	}
}

// TestScheduleMatchesReferenceClusterSets: the page sets the executor builds
// from real SC and CC clusters, for distinct files in either order and for
// self joins, where rows and columns share a file and equal pages collapse.
func TestScheduleMatchesReferenceClusterSets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 12; iter++ {
		n := 10 + rng.Intn(60)
		var marks []predmat.Entry
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				if rng.Float64() < 0.2*float64(iter%4)/3 || (r-c < 3 && c-r < 3 && rng.Intn(2) == 0) {
					marks = append(marks, predmat.Entry{R: r, C: c})
				}
			}
		}
		m := predmat.FromEntries(n, n, marks)
		b := []int{3, 10, 16, 100}[iter%4]
		var clusters []*cluster.Cluster
		var err error
		if iter%2 == 0 {
			clusters, err = cluster.SquareOpts(m, b, cluster.SquareOptions{})
		} else {
			clusters, err = cluster.Cost(m, b, cluster.CostOptions{Seed: int64(iter)})
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range [][2]disk.FileID{{0, 1}, {1, 0}, {2, 2}} {
			ref := make([]refSet, len(clusters))
			for i, c := range clusters {
				ref[i] = refClusterSet(f[0], c.Rows(), f[1], c.Cols())
				if got, want := NewPageSet(f[0], c.Rows(), f[1], c.Cols()), toPageSet(ref[i]); !slices.Equal(got, want) {
					t.Fatalf("iter %d files %v cluster %d: NewPageSet %v, want %v", iter, f, i, got, want)
				}
			}
			assertMatchesReference(t, fmt.Sprintf("iter %d files %v", iter, f), ref)
		}
	}
}
