// Package bfrj implements the Breadth-First R-tree Join of Huang, Jing and
// Rundensteiner (VLDB 1997), the paper's index-based baseline (§9).
//
// The two index hierarchies are materialized as node files (one node per
// page). The join proceeds level by level: the current list of intersecting
// node pairs is globally ordered by page addresses before expansion — the
// paper's "global optimization" that improves locality — and spilled to disk
// when it outgrows its buffer share. Leaf-level pairs are finally joined
// against the data files.
package bfrj

import (
	"sort"

	"pmjoin/internal/disk"
	"pmjoin/internal/index"
	"pmjoin/internal/join"
	"pmjoin/internal/predmat"
)

// nodeFile materializes an index hierarchy in a file of the run's session,
// one node per page, in BFS order. The node pages are scratch pages: reading
// one only charges its I/O, and the node is the pair list's own pointer.
type nodeFile struct {
	file  disk.FileID
	pages map[*index.Node]int
}

func materialize(io *disk.Session, root *index.Node) (*nodeFile, error) {
	nf := &nodeFile{file: io.CreateFile(), pages: make(map[*index.Node]int)}
	queue := []*index.Node{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		addr, err := io.AppendPage(nf.file, disk.Page{})
		if err != nil {
			return nil, err
		}
		nf.pages[n] = addr.Page
		queue = append(queue, n.Children...)
	}
	return nf, nil
}

type pair struct {
	a, b *index.Node
}

// Options configures a BFRJ run.
type Options struct {
	Eps      float64
	Pred     predmat.Predictor
	SelfJoin bool
	// PairsPerPage is the capacity of one spill page of the intermediate
	// pair list (default 256, ~16 bytes per pair in a 4 KB page).
	PairsPerPage int
}

// Run executes BFRJ between the datasets indexed by r.Root and s.Root.
func Run(e *join.Engine, r, s *join.Dataset, j join.ObjectJoiner, opts Options) (*join.Report, error) {
	if opts.PairsPerPage == 0 {
		opts.PairsPerPage = 256
	}
	// Node pairs are tested as the prediction matrix tests page pairs.
	within, _ := predmat.MBRTest(opts.Pred, opts.Eps)
	return e.Run("BFRJ", func(x *join.Exec) error {
		rNodes, err := materialize(x.IO, r.Root)
		if err != nil {
			return err
		}
		sNodes, err := materialize(x.IO, s.Root)
		if err != nil {
			return err
		}

		// Intermediate pair lists may not fit in memory: the executor keeps
		// at most half the buffer's worth of pairs in memory and charges
		// spill write+read for the excess.
		spillFile := x.IO.CreateFile()
		spillCap := (e.BufferSize / 2) * opts.PairsPerPage

		sortPairs := func(ps []pair) {
			// Global ordering: sort the pair list by node page addresses so
			// the expansion reads each node file in ascending order.
			sort.Slice(ps, func(i, k int) bool {
				pi, pk := ps[i], ps[k]
				if rNodes.pages[pi.a] != rNodes.pages[pk.a] {
					return rNodes.pages[pi.a] < rNodes.pages[pk.a]
				}
				return sNodes.pages[pi.b] < sNodes.pages[pk.b]
			})
		}

		// Leaf-level candidates collapse to data page pairs eagerly: several
		// leaf boxes can share one data page (multi-resolution sequence
		// indexes), and materializing box-level pairs first would explode
		// memory at genome scale.
		type pagePair struct{ a, b int }
		leafSeen := make(map[pagePair]struct{})
		var leafPairs []pagePair
		addLeaf := func(a, b *index.Node) {
			pp := pagePair{a: a.Page, b: b.Page}
			if _, dup := leafSeen[pp]; dup {
				return
			}
			leafSeen[pp] = struct{}{}
			leafPairs = append(leafPairs, pp)
		}
		current := []pair{{a: r.Root, b: s.Root}}
		if r.Root.IsLeaf() && s.Root.IsLeaf() {
			addLeaf(r.Root, s.Root)
			current = nil
		}
		for len(current) > 0 {
			// One index level is one unit of work; cancellation is honored
			// at its boundary.
			if err := x.Err(); err != nil {
				return err
			}
			sortPairs(current)
			if len(current) > spillCap {
				if err := chargeSpill(x, spillFile, (len(current)-spillCap+opts.PairsPerPage-1)/opts.PairsPerPage); err != nil {
					return err
				}
			}
			var next []pair
			for _, p := range current {
				// Read the two node pages through the buffer.
				if _, err := x.Pool.Get(disk.PageAddr{File: rNodes.file, Page: rNodes.pages[p.a]}); err != nil {
					return err
				}
				if _, err := x.Pool.Get(disk.PageAddr{File: sNodes.file, Page: sNodes.pages[p.b]}); err != nil {
					return err
				}
				aKids := p.a.Children
				bKids := p.b.Children
				if p.a.IsLeaf() {
					aKids = []*index.Node{p.a}
				}
				if p.b.IsLeaf() {
					bKids = []*index.Node{p.b}
				}
				for _, ac := range aKids {
					for _, bc := range bKids {
						if within(ac.MBR, bc.MBR) {
							if ac.IsLeaf() && bc.IsLeaf() {
								addLeaf(ac, bc)
							} else {
								next = append(next, pair{a: ac, b: bc})
							}
						}
					}
				}
			}
			current = next
		}

		// Join the candidate data page pairs in global page order.
		sort.Slice(leafPairs, func(i, k int) bool {
			if leafPairs[i].a != leafPairs[k].a {
				return leafPairs[i].a < leafPairs[k].a
			}
			return leafPairs[i].b < leafPairs[k].b
		})
		if len(leafPairs) > spillCap {
			if err := chargeSpill(x, spillFile, (len(leafPairs)-spillCap+opts.PairsPerPage-1)/opts.PairsPerPage); err != nil {
				return err
			}
		}
		for _, pp := range leafPairs {
			if err := x.JoinPair(r, s, pp.a, pp.b, j); err != nil {
				return err
			}
		}
		x.Flush()
		return nil
	})
}

// chargeSpill writes and re-reads n pages of the intermediate pair list.
// The spill file is scratch space of the executor itself, never joined
// against, so its traffic is charged directly on the session: routing it
// through the pool would evict join-relevant pages the real algorithm
// keeps resident in its separate spill buffers.
func chargeSpill(x *join.Exec, f disk.FileID, n int) error {
	base := x.IO.NumPages(f)
	for i := 0; i < n; i++ {
		addr, err := x.IO.AppendPage(f, disk.Page{})
		if err != nil {
			return err
		}
		//lint:ignore bufferbypass spill scratch traffic is charged directly; see chargeSpill doc
		if err := x.IO.Write(addr, disk.Page{}); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		//lint:ignore bufferbypass spill scratch traffic is charged directly; see chargeSpill doc
		if _, err := x.IO.Read(disk.PageAddr{File: f, Page: base + i}); err != nil {
			return err
		}
	}
	return nil
}
