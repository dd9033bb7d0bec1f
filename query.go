package pmjoin

import (
	"container/heap"
	"fmt"
	"sort"

	"pmjoin/internal/buffer"
	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/index"
)

// QueryOptions configures a single-dataset query. The zero value selects
// every default.
type QueryOptions struct {
	// BufferPages is the buffer size the query reads candidate data pages
	// through (minimum 1; 0 means the default, 4).
	BufferPages int
	// MaxResults caps the number of returned objects (0 means unlimited).
	// A range query keeps the MaxResults smallest IDs; k-NN effectively
	// lowers k to MaxResults. QueryResult.Truncated reports that the cap
	// cut matches off.
	MaxResults int
}

func (o *QueryOptions) validate() error {
	if o.BufferPages == 0 {
		o.BufferPages = 4
	}
	if o.BufferPages < 1 {
		return fmt.Errorf("pmjoin: buffer of %d pages", o.BufferPages)
	}
	if o.MaxResults < 0 {
		return fmt.Errorf("pmjoin: negative MaxResults %d", o.MaxResults)
	}
	return nil
}

// queryScope validates the preconditions shared by every query and opens the
// private disk session and buffer pool the query reads candidate data pages
// through. The session starts with cold heads, so concurrent queries do not
// perturb each other's costs.
func (s *System) queryScope(d *Dataset, center []float64, opts *QueryOptions) (*disk.Session, *buffer.Pool, error) {
	if err := s.checkQuery(d, center); err != nil {
		return nil, nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	io := s.d.NewSession()
	pool, err := buffer.NewPool(io, opts.BufferPages, buffer.LRU)
	if err != nil {
		return nil, nil, err
	}
	return io, pool, nil
}

// QueryResult reports the outcome and simulated I/O of a single-dataset
// query (range or k-nearest-neighbor).
type QueryResult struct {
	// IDs of the matching objects. Range queries return them in ascending
	// ID order; k-NN in ascending distance order.
	IDs []int
	// Distances parallel IDs for k-NN queries (nil for range queries).
	Distances []float64
	// Truncated reports that QueryOptions.MaxResults cut matches off.
	Truncated bool
	// IOSeconds and PageReads charge the data pages the query touched
	// (index nodes are memory resident, as in the paper's setting).
	IOSeconds float64
	PageReads int64
}

// RangeQueryOpts returns the objects of the vector dataset d within eps of
// center under the dataset's norm, in ascending ID order. Like every
// read-only call, the query charges its I/O to a private disk session, so
// concurrent queries do not perturb each other's costs.
func (s *System) RangeQueryOpts(d *Dataset, center []float64, eps float64, opts QueryOptions) (*QueryResult, error) {
	if eps < 0 {
		return nil, fmt.Errorf("pmjoin: negative epsilon %g", eps)
	}
	io, pool, err := s.queryScope(d, center, &opts)
	if err != nil {
		return nil, err
	}
	q := geom.Vector(center)
	res := &QueryResult{}

	var walk func(n *index.Node) error
	walk = func(n *index.Node) error {
		if d.norm.MinDistPoint(q, n.MBR) > eps {
			return nil
		}
		if n.IsLeaf() {
			pg, err := pool.Get(disk.PageAddr{File: d.ds.File, Page: n.Page})
			if err != nil {
				return err
			}
			for i, id := range pg.IDs {
				if d.norm.Dist(q, pg.Flat.Row(i)) <= eps {
					res.IDs = append(res.IDs, id)
				}
			}
			return nil
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(d.ds.Root); err != nil {
		return nil, err
	}
	sort.Ints(res.IDs)
	if opts.MaxResults > 0 && len(res.IDs) > opts.MaxResults {
		res.IDs = res.IDs[:opts.MaxResults]
		res.Truncated = true
	}
	chargeQuery(res, io)
	return res, nil
}

// nnPQ is the best-first queue of the k-NN search over the MBR hierarchy.
type nnPQ []nnItem

type nnItem struct {
	dist float64
	node *index.Node // nil for object entries
	id   int
}

func (q nnPQ) Len() int           { return len(q) }
func (q nnPQ) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q nnPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *nnPQ) Push(x any)        { *q = append(*q, x.(nnItem)) }
func (q *nnPQ) Pop() any          { o := *q; n := len(o); e := o[n-1]; *q = o[:n-1]; return e }

// NearestNeighborsOpts returns the k objects of the vector dataset d closest
// to center, best-first over the index hierarchy (Hjaltason & Samet, cited
// in §2.2); data pages are fetched through a buffer only when a leaf reaches
// the head of the queue. A MaxResults below k lowers k and marks the result
// truncated.
func (s *System) NearestNeighborsOpts(d *Dataset, center []float64, k int, opts QueryOptions) (*QueryResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("pmjoin: k = %d", k)
	}
	io, pool, err := s.queryScope(d, center, &opts)
	if err != nil {
		return nil, err
	}
	res := &QueryResult{}
	if opts.MaxResults > 0 && k > opts.MaxResults {
		k = opts.MaxResults
		res.Truncated = true
	}
	q := geom.Vector(center)
	pq := &nnPQ{}
	heap.Init(pq)
	heap.Push(pq, nnItem{dist: d.norm.MinDistPoint(q, d.ds.Root.MBR), node: d.ds.Root})

	for pq.Len() > 0 && len(res.IDs) < k {
		e := heap.Pop(pq).(nnItem)
		if e.node == nil {
			res.IDs = append(res.IDs, e.id)
			res.Distances = append(res.Distances, e.dist)
			continue
		}
		if e.node.IsLeaf() {
			pg, err := pool.Get(disk.PageAddr{File: d.ds.File, Page: e.node.Page})
			if err != nil {
				return nil, err
			}
			for i, id := range pg.IDs {
				heap.Push(pq, nnItem{dist: d.norm.Dist(q, pg.Flat.Row(i)), id: id})
			}
			continue
		}
		for _, c := range e.node.Children {
			heap.Push(pq, nnItem{dist: d.norm.MinDistPoint(q, c.MBR), node: c})
		}
	}
	chargeQuery(res, io)
	return res, nil
}

func (s *System) checkQuery(d *Dataset, center []float64) error {
	if d.sys != s {
		return fmt.Errorf("pmjoin: dataset belongs to a different system")
	}
	if d.kind != KindVector {
		return fmt.Errorf("pmjoin: %v datasets do not support point queries", d.kind)
	}
	if len(center) != d.dim {
		return fmt.Errorf("pmjoin: query dimension %d, dataset dimension %d", len(center), d.dim)
	}
	return nil
}

// chargeQuery converts the query session's charges to simulated seconds.
// The session started with cold heads, so the cost is a pure function of
// the query's own access sequence, independent of whatever ran before.
func chargeQuery(res *QueryResult, io *disk.Session) {
	st := io.Stats()
	res.PageReads = st.Reads
	res.IOSeconds = io.Cost()
}
