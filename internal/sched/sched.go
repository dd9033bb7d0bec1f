// Package sched orders clusters to maximize buffer reuse (§8): it builds the
// sharing graph of Definition 1 (vertices = clusters, edge weights = number
// of shared pages) and constructs a high-weight Hamiltonian path with the
// paper's greedy heuristic (take edges in descending weight unless they
// close a cycle or raise a vertex degree to three), since the exact problem
// is the NP-complete TSP (Lemmas 3 and 4).
package sched

import (
	"cmp"
	"math/rand"
	"slices"

	"pmjoin/internal/disk"
)

// PageSet is the set of pages a cluster needs resident: distinct addresses in
// ascending (file, page) order, the optimal disk scheduling order [40] in
// which the executor fetches and pins them.
type PageSet []disk.PageAddr

// NewPageSet returns the page set of a cluster with the given ascending
// distinct rows (pages of rFile) and cols (pages of sFile). In a self join
// (rFile == sFile) a row and an equal col are one page, listed once.
func NewPageSet(rFile disk.FileID, rows []int, sFile disk.FileID, cols []int) PageSet {
	ps := make(PageSet, 0, len(rows)+len(cols))
	for _, p := range rows {
		ps = append(ps, disk.PageAddr{File: rFile, Page: p})
	}
	for _, p := range cols {
		ps = append(ps, disk.PageAddr{File: sFile, Page: p})
	}
	if sFile <= rFile {
		slices.SortFunc(ps, comparePages)
		ps = slices.Compact(ps)
	}
	return ps
}

func comparePages(a, b disk.PageAddr) int {
	return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Page, b.Page))
}

// Edge is one weighted sharing-graph edge between cluster indices A < B.
type Edge struct {
	A, B   int
	Weight int
}

// SharingGraph computes all positive-weight edges between the page sets, in
// ascending (A, B) order.
//
// It inverts the sets into page → holding clusters lists, then for each
// cluster A counts, over its pages, the holders B > A: O(Σ k²) over pages
// held by k clusters, where pairwise set merges would cost O(n² · B).
func SharingGraph(pages []PageSet) []Edge {
	ids, universe := pageIDs(pages)
	// holders[head[p]:head[p+1]] are the clusters holding page id p, ascending.
	head := make([]int, universe+1)
	for _, set := range ids {
		for _, p := range set {
			head[p+1]++
		}
	}
	for p := range universe {
		head[p+1] += head[p]
	}
	holders := make([]int, head[universe])
	next := slices.Clone(head[:universe])
	for i, set := range ids {
		for _, p := range set {
			holders[next[p]] = i
			next[p]++
		}
	}
	// Clusters are visited in ascending order, so when A is visited it is
	// the first holder of each of its pages that next has not yet passed.
	copy(next, head)
	weight := make([]int, len(pages))
	var touched []int
	var edges []Edge
	for a, set := range ids {
		touched = touched[:0]
		for _, p := range set {
			next[p]++
			for _, b := range holders[next[p]:head[p+1]] {
				if weight[b] == 0 {
					touched = append(touched, b)
				}
				weight[b]++
			}
		}
		slices.Sort(touched)
		for _, b := range touched {
			edges = append(edges, Edge{A: a, B: b, Weight: weight[b]})
			weight[b] = 0
		}
	}
	return edges
}

// pageIDs numbers the pages densely — a file's page p is p plus the page
// counts of the files met before it (a join has one or two) — and returns
// every set as ids, views of one array, and the number of ids.
func pageIDs(pages []PageSet) ([][]int, int) {
	var files []disk.FileID
	var offset []int // per file: first the page count, then the id offset
	total := 0
	for _, set := range pages {
		total += len(set)
		for _, a := range set {
			k := slices.Index(files, a.File)
			if k < 0 {
				k = len(files)
				files, offset = append(files, a.File), append(offset, 0)
			}
			offset[k] = max(offset[k], a.Page+1)
		}
	}
	universe := 0
	for k, n := range offset {
		offset[k], universe = universe, universe+n
	}
	flat := make([]int, total)
	ids := make([][]int, len(pages))
	for i, set := range pages {
		ids[i], flat = flat[:len(set)], flat[len(set):]
		for j, a := range set {
			ids[i][j] = offset[slices.Index(files, a.File)] + a.Page
		}
	}
	return ids, universe
}

// PathSavings returns the total page reads saved by visiting clusters in the
// given order: the sum of shared pages between consecutive clusters
// (Lemma 4).
func PathSavings(pages []PageSet, order []int) int {
	total := 0
	for _, s := range StepSavings(pages, order) {
		total += s
	}
	return total
}

// StepSavings returns, for each position in the order, the pages the cluster
// at that position shares with its immediate predecessor (position 0 shares
// nothing). These are the per-step reuse guarantees behind PathSavings —
// the buffer may reuse more (pages surviving from older clusters), never
// less, so each step is a per-cluster predicted read count's reuse term.
func StepSavings(pages []PageSet, order []int) []int {
	steps := make([]int, len(order))
	for i := 1; i < len(order); i++ {
		steps[i] = shared(pages[order[i-1]], pages[order[i]])
	}
	return steps
}

// shared counts the pages two sets have in common (one sorted merge).
func shared(a, b PageSet) int {
	n, j := 0, 0
	for _, p := range a {
		for j < len(b) && comparePages(b[j], p) < 0 {
			j++
		}
		if j < len(b) && b[j] == p {
			n++
		}
	}
	return n
}

// GreedyOrder returns a processing order over all n clusters maximizing
// (greedily) the summed weight of consecutive-cluster edges. Every cluster
// appears exactly once (Lemma 3). Isolated clusters are appended at the end
// of the stitched path.
func GreedyOrder(n int, edges []Edge) []int {
	if n == 0 {
		return nil
	}
	// Heaviest first; (A, B) breaks ties, so the order is total.
	sorted := slices.Clone(edges)
	slices.SortFunc(sorted, func(x, y Edge) int {
		return cmp.Or(cmp.Compare(y.Weight, x.Weight), cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})

	degree := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
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
			continue // would close a cycle
		}
		parent[ra] = rb
		degree[e.A]++
		degree[e.B]++
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}

	// Walk each path from an endpoint (degree ≤ 1); stitch paths and
	// isolated vertices in ascending endpoint order for determinism.
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
	// Degenerate case: a perfect cycle remainder cannot occur (edges that
	// close cycles are rejected), but guard anyway.
	for v := 0; v < n; v++ {
		if !visited[v] {
			visited[v] = true
			order = append(order, v)
		}
	}
	return order
}

// RandomOrder returns a uniformly random permutation of n clusters (the
// random-SC comparator of §9.1).
func RandomOrder(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)
	return order
}
