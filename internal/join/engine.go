package join

import (
	"context"
	"fmt"
	"math"

	"pmjoin/internal/buffer"
	"pmjoin/internal/cluster"
	"pmjoin/internal/disk"
	"pmjoin/internal/metrics"
	"pmjoin/internal/pool"
	"pmjoin/internal/predmat"
	"pmjoin/internal/sched"
)

// Engine executes joins over one simulated disk with a fixed buffer budget.
// Each run gets its own disk session and buffer pool (see Run), so engines
// over one shared disk may run concurrently.
type Engine struct {
	Disk       *disk.Disk
	BufferSize int           // B, in pages
	Policy     buffer.Policy // LRU by default
	// Pairs, when non-nil, collects the result pairs of the engine's runs in
	// deterministic order, up to its cap (see Pairs and MergePairs).
	Pairs *Pairs
	// Workers, when non-nil, is the join's group: every run queues its
	// page-pair comparisons on siblings of it, sharing its cap; nil executes
	// them inline. Either way the report is bit-for-bit identical (see Exec).
	Workers *pool.Group
	// Ctx carries cancellation, checked between clusters / blocks; nil
	// means never cancelled.
	Ctx context.Context
	// Metrics, when non-nil, collects the run's phase-scoped metrics and
	// trace (see internal/metrics): Run attaches it to the run's session and
	// pool, and its caller opens the phase the run is charged to (the join
	// phase, which also covers the caller's merge of the pairs). A nil
	// collector costs nothing: every hook is a nil-receiver no-op. Metrics
	// never influence the Report — they are outside the determinism contract.
	Metrics *metrics.Collector
	// Backend, when non-nil, is the physical page source behind the disk
	// (internal/store.Store): page payloads are read from real files with
	// measured latencies instead of served from memory. The Report is
	// bit-identical either way; only the run session's Measured account
	// differs, which the Metrics snapshot reports (see disk.Backend; pinned
	// by TestBackendParity).
	Backend disk.Backend
}

// validate makes a run's O(1) checks: the engine has a disk and a buffer of
// at least three frames, and each dataset matches its file's page count
// (Dataset.Check).
func (e *Engine) validate(r, s *Dataset) error {
	if e.Disk == nil {
		return fmt.Errorf("join: engine has no disk")
	}
	if e.BufferSize < 3 {
		return fmt.Errorf("join: buffer size %d < 3", e.BufferSize)
	}
	if err := r.Check(e.Disk); err != nil {
		return err
	}
	return s.Check(e.Disk)
}

// Run wraps an executor body with a fresh execution scope: a cold disk
// session (the run's I/O account is a pure function of its own access
// sequence), a buffer pool over it, and the report the body fills in. After
// the body returns, the session's charges are converted to simulated
// seconds and folded into the report. A body that returns successfully
// while holding a pin is an error: a leaked pin shrinks the buffer for the
// rest of the run, so every miss count after it would be wrong. Error
// returns are exempt, since a failed run discards its pool.
func (e *Engine) Run(method string, body func(x *Exec) error) (*Report, error) {
	io := e.Disk.NewSessionOn(e.Backend)
	pool, err := buffer.NewPool(io, e.BufferSize, e.Policy)
	if err != nil {
		return nil, err
	}
	rep := &Report{Method: method}
	x := &Exec{IO: io, Pool: pool, Rep: rep, eng: e}
	// Even on an error path (cancellation included), wait for both slots'
	// runs so no worker is left computing over the run's state.
	for i := range x.slots {
		x.slots[i].g = e.Workers.Sibling()
		defer x.slots[i].g.Wait()
	}
	e.Metrics.Attach(io, pool)
	if err := body(x); err != nil {
		return nil, err
	}
	if n := pool.PinnedFrames(); n > 0 {
		return nil, fmt.Errorf("join: %s returned with %d pinned frame(s)", method, n)
	}
	st := io.Stats()
	rep.IOSeconds += e.Disk.Model().Cost(st)
	rep.PageReads = st.Reads
	rep.Seeks = st.Seeks + st.WriteSeeks
	bs := pool.Stats()
	rep.Hits = bs.Hits
	rep.Misses = bs.Misses
	return rep, nil
}

// NLJ runs block nested loop join: blocks of B-1 pages of the outer dataset
// (the one with fewer pages) are pinned while the inner dataset is scanned
// sequentially, one frame at a time.
func (e *Engine) NLJ(r, s *Dataset, j ObjectJoiner) (*Report, error) {
	if err := e.validate(r, s); err != nil {
		return nil, err
	}
	return e.Run("NLJ", func(x *Exec) error {
		outerIsR := r.Pages <= s.Pages
		outer, inner := r, s
		if !outerIsR {
			outer, inner = s, r
		}
		block := e.BufferSize - 1
		for lo := 0; lo < outer.Pages; lo += block {
			if err := x.Err(); err != nil {
				return err
			}
			hi := lo + block
			if hi > outer.Pages {
				hi = outer.Pages
			}
			// New block: drop everything, then pin the block. All pins were
			// released at the end of the previous block, so a flush error
			// here means the pin ledger is corrupt — abort the run.
			if err := x.Pool.Flush(); err != nil {
				return err
			}
			for p := lo; p < hi; p++ {
				if _, err := x.Pool.GetPinned(disk.PageAddr{File: outer.File, Page: p}); err != nil {
					return err
				}
			}
			for q := 0; q < inner.Pages; q++ {
				ip, err := x.Pool.Get(disk.PageAddr{File: inner.File, Page: q})
				if err != nil {
					return err
				}
				for p := lo; p < hi; p++ {
					op, err := x.Pool.Get(disk.PageAddr{File: outer.File, Page: p})
					if err != nil {
						return err
					}
					if outerIsR {
						x.JoinPayloads(j, op, ip)
					} else {
						x.JoinPayloads(j, ip, op)
					}
				}
			}
			x.Flush()
			x.Pool.UnpinAll()
		}
		return nil
	})
}

// PMNLJ runs prediction-matrix NLJ (Figure 4): if the marked pages of one
// side fit into B-1 frames they are pinned and the other side's marked pages
// stream through once; otherwise marked rows are scanned in ascending order
// and each row's marked columns are fetched through the LRU buffer.
func (e *Engine) PMNLJ(r, s *Dataset, m *predmat.Matrix, j ObjectJoiner) (*Report, error) {
	if err := e.validate(r, s); err != nil {
		return nil, err
	}
	if m.Rows() != r.Pages || m.Cols() != s.Pages {
		return nil, fmt.Errorf("join: matrix is %dx%d, datasets have %dx%d pages",
			m.Rows(), m.Cols(), r.Pages, s.Pages)
	}
	return e.Run("pm-NLJ", func(x *Exec) error {
		x.Rep.MarkedEntries = m.Marked()
		markedRows := m.MarkedRows()
		markedCols := m.MarkedCols()

		switch {
		case len(markedCols) <= e.BufferSize-1:
			// All marked pages of the second dataset fit: read them once,
			// then stream the marked rows through the remaining frame.
			for _, c := range markedCols {
				if _, err := x.Pool.GetPinned(disk.PageAddr{File: s.File, Page: c}); err != nil {
					return err
				}
			}
			for _, row := range markedRows {
				if err := x.Err(); err != nil {
					return err
				}
				for _, c := range m.RowCols(row) {
					if err := x.JoinPair(r, s, row, c, j); err != nil {
						return err
					}
				}
				x.Flush()
			}
			x.Pool.UnpinAll()
		case len(markedRows) <= e.BufferSize-1:
			for _, row := range markedRows {
				if _, err := x.Pool.GetPinned(disk.PageAddr{File: r.File, Page: row}); err != nil {
					return err
				}
			}
			for _, c := range markedCols {
				if err := x.Err(); err != nil {
					return err
				}
				for _, row := range m.ColRows(c) {
					if err := x.JoinPair(r, s, row, c, j); err != nil {
						return err
					}
				}
				x.Flush()
			}
			x.Pool.UnpinAll()
		default:
			// Figure 4, else branch: one marked page of the first dataset
			// at a time; its marked partner pages stream through the rest
			// of the buffer (ascending order; LRU gives whatever reuse
			// consecutive rows allow). This is the access pattern behind
			// Lemma 1's m + min(r,c) bound.
			for _, row := range markedRows {
				if err := x.Err(); err != nil {
					return err
				}
				if _, err := x.Pool.GetPinned(disk.PageAddr{File: r.File, Page: row}); err != nil {
					return err
				}
				for _, c := range m.RowCols(row) {
					if err := x.JoinPair(r, s, row, c, j); err != nil {
						return err
					}
				}
				x.Flush()
				if err := x.Pool.Unpin(disk.PageAddr{File: r.File, Page: row}); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// Clustered runs the clustered join over the clusters at the creation
// indices in order, in that order; pages[i] is cluster i's pinned page set
// (sched.NewPageSet over its rows and columns). Each cluster's pages are
// pinned with Pool.PinSet (the resident ones first, so every page shared
// with the predecessor is reused as Lemma 4 requires, then the missing ones
// read in ascending page order — optimal disk scheduling [40]), and the
// cluster's marked page pairs are joined entirely in memory (Lemma 2). The
// schedule is the caller's (internal/shard plans it), and so are the
// report's Method and PreprocessSeconds.
func (e *Engine) Clustered(r, s *Dataset, m *predmat.Matrix, clusters []*cluster.Cluster, pages []sched.PageSet, order []int, j ObjectJoiner) (*Report, error) {
	if err := e.validate(r, s); err != nil {
		return nil, err
	}
	for _, ci := range order {
		if c := clusters[ci]; c.Pages() > e.BufferSize {
			return nil, fmt.Errorf("join: cluster %d needs %d pages > buffer %d", ci, c.Pages(), e.BufferSize)
		}
	}

	return e.Run("clustered", func(x *Exec) error {
		return x.joinClusters(r, s, m, clusters, pages, order, j)
	})
}

// joinClusters is the clustered executor's body. Each cluster is pinned,
// dispatched and unpinned in turn; its comparison runs are still executing
// while the next cluster's pages are pinned (JoinCluster retires them after
// dispatching the next cluster's, and Flush the last), so the coordinator
// and the workers overlap through a window of two clusters.
func (x *Exec) joinClusters(r, s *Dataset, m *predmat.Matrix, clusters []*cluster.Cluster, pages []sched.PageSet, order []int, j ObjectJoiner) error {
	x.Rep.MarkedEntries = m.Marked()
	x.Rep.Clusters = len(order)
	for _, ci := range order {
		// A cluster is one unit of work: cancellation is checked at its
		// boundary.
		if err := x.Err(); err != nil {
			return err
		}
		x.eng.Metrics.ClusterStart(ci)
		// Pin the resident pages, then read the missing ones in ascending
		// (file, page) order — the page set's own order. PredictReads
		// replays this call.
		if err := x.Pool.PinSet(pages[ci]); err != nil {
			return err
		}
		x.eng.Metrics.ClusterPinned(len(pages[ci]))
		if err := x.JoinCluster(r, s, clusters[ci], j); err != nil {
			return err
		}
		x.Pool.UnpinAll()
		x.eng.Metrics.ClusterEnd()
	}
	x.Flush()
	return nil
}

// PredictReads returns the pages the clustered executor reads at each
// position of order, a run over the page sets with a cold pool of
// bufferPages frames under policy. It replays the executor's own buffer
// traffic — Pool.PinSet per cluster, UnpinAll after it — over a pool whose
// source does no I/O, so the prediction is the measurement by construction:
// the same pool code decides every hit, miss and victim.
func PredictReads(sets []sched.PageSet, order []int, bufferPages int, policy buffer.Policy) ([]int, error) {
	pool, err := buffer.NewPool(noIO{new(disk.Page)}, bufferPages, policy)
	if err != nil {
		return nil, err
	}
	reads := make([]int, len(order))
	for pos, ci := range order {
		misses := pool.Stats().Misses
		if err := pool.PinSet(sets[ci]); err != nil {
			return nil, err
		}
		reads[pos] = int(pool.Stats().Misses - misses)
		pool.UnpinAll()
	}
	return reads, nil
}

// noIO is PredictReads' page source: residency is all the replay needs, so
// every read returns the same empty page.
type noIO struct{ page *disk.Page }

func (n noIO) Read(disk.PageAddr) (*disk.Page, error) { return n.page, nil }

// ModelSCPreprocess returns the modeled seconds of SC clustering over m
// marked entries (two linear passes, §7.1).
func ModelSCPreprocess(markedEntries int) float64 {
	return float64(markedEntries) * SCEntryCost
}

// ModelCCPreprocess returns the modeled seconds of CC clustering (O(m^1.5)
// threshold-algorithm expansions, §7.2).
func ModelCCPreprocess(markedEntries int) float64 {
	m := float64(markedEntries)
	return math.Pow(m, 1.5) * CCEntryCost
}

// ModelSchedulePreprocess returns the modeled seconds of the greedy sharing
// graph schedule over the given number of edges (O(|E| log |E|), §8).
func ModelSchedulePreprocess(edges int) float64 {
	if edges < 2 {
		return float64(edges) * SchedEdgeCost
	}
	e := float64(edges)
	return e * math.Log2(e) * SchedEdgeCost
}
