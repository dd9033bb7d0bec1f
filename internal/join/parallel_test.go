package join

import (
	"math/rand"
	"reflect"
	"testing"

	"pmjoin/internal/cluster"
	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/pool"
	"pmjoin/internal/predmat"
	"pmjoin/internal/sched"
)

// workerGroup returns a group of up to n tasks in flight on a pool of n
// workers, closed when t ends; nil, inline, when n < 2.
func workerGroup(t testing.TB, n int) *pool.Group {
	p := pool.New(n)
	t.Cleanup(p.Close)
	return p.Group(n)
}

// parallelCase is one join of TestParallelReportsIdentical: its datasets
// (s == r for a self join), their pages, the matrix pm-NLJ and SC read, and
// the joiner.
type parallelCase struct {
	d              *disk.Disk
	r, s           *Dataset
	rPages, sPages []*disk.Page
	m              *predmat.Matrix
	j              ObjectJoiner
}

const parallelBuffer = 16

// filePages returns the pages of ds as the disk holds them.
func filePages(t *testing.T, d *disk.Disk, ds *Dataset) []*disk.Page {
	t.Helper()
	io := d.NewSession()
	pages := make([]*disk.Page, ds.Pages)
	for p := range pages {
		var err error
		if pages[p], err = io.Peek(disk.PageAddr{File: ds.File, Page: p}); err != nil {
			t.Fatal(err)
		}
	}
	return pages
}

// parallelCases returns the joins: 2-d vectors under L2, across two datasets
// and self-joined, over STR-packed R-trees and their predicted matrices; and
// a series self join with overlap exclusion and a string join over flat
// indexes, whose matrices mark a random third of their cells.
func parallelCases(t *testing.T) map[string]parallelCase {
	d, da, db, _, eps := testSetup(t, 7, 400, 300)
	cases := map[string]parallelCase{
		"vector": {d: d, r: da, s: db, m: buildMatrix(t, da, db, eps), j: VectorJoiner{Norm: geom.L2, Eps: eps}},
		"vector-self": {d: d, r: da, s: da, m: buildMatrix(t, da, da, eps),
			j: VectorJoiner{Norm: geom.L2, Eps: eps, Self: true}},
	}
	for name, c := range cases {
		c.rPages, c.sPages = filePages(t, d, c.r), filePages(t, d, c.s)
		cases[name] = c
	}

	rng := rand.New(rand.NewSource(7))
	marked := func(rows, cols int) *predmat.Matrix {
		var marks []predmat.Entry
		for r := range rows {
			for c := range cols {
				if rng.Intn(3) == 0 {
					marks = append(marks, predmat.Entry{R: r, C: c})
				}
			}
		}
		return predmat.FromEntries(rows, cols, marks)
	}
	const nPages = 40
	series := make([]*disk.Page, nPages)
	for p := range series {
		series[p] = randSeriesPage(rng, 20*p, 20, 16, 4)
	}
	d = disk.New(disk.DefaultModel())
	ds := oracleDataset(t, d, "series", series)
	cases["series-self"] = parallelCase{d: d, r: ds, s: ds, rPages: series, sPages: series,
		m: marked(nPages, nPages), j: SeriesJoiner{Eps: 1.5, Self: true, ExcludeOverlap: 16}}
	sr, ss := randStringPages(rng, nPages), randStringPages(rng, nPages)
	d = disk.New(disk.DefaultModel())
	cases["string"] = parallelCase{d: d, r: oracleDataset(t, d, "r", sr), s: oracleDataset(t, d, "s", ss),
		rPages: sr, sPages: ss, m: marked(nPages, nPages), j: StringJoiner{MaxEdit: 9}}
	return cases
}

// run executes one method on the given number of workers (1: inline) and
// returns the report, the collected pairs and the cells the method
// compares, in its order, as (R page, S page) entries.
func (c parallelCase) run(t *testing.T, method string, workers int) (*Report, [][2]int, []predmat.Entry) {
	t.Helper()
	e := &Engine{Disk: c.d, BufferSize: parallelBuffer, Pairs: NewPairs(1 << 30)}
	e.Workers = workerGroup(t, workers)
	var rep *Report
	var err error
	var cells []predmat.Entry
	switch method {
	case "NLJ":
		rep, err = e.NLJ(c.r, c.s, c.j)
		outer, inner := c.r.Pages, c.s.Pages
		if outer > inner {
			outer, inner = inner, outer
		}
		for lo := 0; lo < outer; lo += parallelBuffer - 1 {
			for q := range inner {
				for p := lo; p < min(lo+parallelBuffer-1, outer); p++ {
					if c.r.Pages <= c.s.Pages {
						cells = append(cells, predmat.Entry{R: p, C: q})
					} else {
						cells = append(cells, predmat.Entry{R: q, C: p})
					}
				}
			}
		}
	case "PMNLJ":
		rep, err = e.PMNLJ(c.r, c.s, c.m, c.j)
		if len(c.m.MarkedCols()) > parallelBuffer-1 && len(c.m.MarkedRows()) <= parallelBuffer-1 {
			for _, col := range c.m.MarkedCols() {
				for _, row := range c.m.ColRows(col) {
					cells = append(cells, predmat.Entry{R: row, C: col})
				}
			}
		} else {
			for _, row := range c.m.MarkedRows() {
				for _, col := range c.m.RowCols(row) {
					cells = append(cells, predmat.Entry{R: row, C: col})
				}
			}
		}
	case "SC":
		clusters, cerr := cluster.SquareOpts(c.m, parallelBuffer, cluster.SquareOptions{})
		if cerr != nil {
			t.Fatal(cerr)
		}
		rep, err = runScheduled(e, c.r, c.s, c.m, clusters, c.j)
		pages := pageSetsOf(c.r, c.s, clusters)
		for _, ci := range sched.GreedyOrder(len(pages), sched.SharingGraph(pages)) {
			cells = append(cells, clusters[ci].Entries...)
		}
	default:
		t.Fatalf("unknown method %q", method)
	}
	if err != nil {
		t.Fatal(err)
	}
	pairs, _ := MergePairs([]*Pairs{e.Pairs}, 1<<30)
	return rep, pairs, cells
}

// TestParallelReportsIdentical is the engine-level determinism contract:
// for every executor that consults Workers, and for vector joins across two
// datasets and self-joined, a series self join with overlap exclusion and a
// string join, the report and the emitted pair sequence must be
// byte-for-byte identical at any worker count, and equal a serial loop of
// the per-pair reference over the cells the method compares: the same pair
// stream, comparisons and results, and bit-equal CPU seconds.
func TestParallelReportsIdentical(t *testing.T) {
	cases := parallelCases(t)
	for _, method := range []string{"NLJ", "PMNLJ", "SC"} {
		t.Run(method, func(t *testing.T) {
			for _, name := range []string{"vector", "vector-self", "series-self", "string"} {
				c := cases[name]
				t.Run(name, func(t *testing.T) {
					baseRep, basePairs, cells := c.run(t, method, 1)
					var want joinTrace
					for _, en := range cells {
						want.add(func(emit func(int, int)) (int64, float64) {
							return refJoinPages(c.j, c.rPages[en.R], c.sPages[en.C], emit)
						})
					}
					if len(want.pairs) == 0 {
						t.Fatal("the reference finds no pairs; the case is vacuous")
					}
					got := joinTrace{pairs: basePairs, comps: baseRep.Comparisons, cpu: baseRep.CPUJoinSeconds}
					got.check(t, want)
					if baseRep.Results != int64(len(want.pairs)) {
						t.Errorf("Results = %d, reference %d", baseRep.Results, len(want.pairs))
					}
					for _, workers := range []int{2, 4, 7} {
						rep, pairs, _ := c.run(t, method, workers)
						if !reflect.DeepEqual(rep, baseRep) {
							t.Errorf("workers=%d report differs:\n serial:   %+v\n parallel: %+v", workers, baseRep, rep)
						}
						if !reflect.DeepEqual(pairs, basePairs) {
							t.Errorf("workers=%d pair sequence differs (len %d vs %d)", workers, len(pairs), len(basePairs))
						}
					}
				})
			}
		})
	}
}
