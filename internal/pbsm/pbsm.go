// Package pbsm implements the Partition Based Spatial-Merge join of Patel &
// DeWitt (SIGMOD 1996), surveyed in §2.1 of the paper. It is provided as an
// extension baseline beyond the paper's evaluated comparators.
//
// The data space is tiled by a grid on the first (up to) two dimensions;
// tiles are assigned to partitions round-robin to absorb skew. The first
// dataset's objects are assigned uniquely by their containing tile; the
// second dataset's objects are replicated to every tile their ε-extension
// intersects, so each result pair materializes in exactly one partition and
// needs no deduplication. Both datasets are scanned sequentially, partition
// files are written and then joined one partition at a time.
package pbsm

import (
	"fmt"
	"math"

	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/join"
	"pmjoin/internal/kernel"
)

// Options configures a PBSM run.
type Options struct {
	// Eps is the join threshold (used for replication of the second
	// dataset's objects).
	Eps float64
	// Partitions is the number of partitions (0: chosen so an average
	// partition pair fits into half the buffer).
	Partitions int
	// TilesPerAxis is the tile-grid resolution (0: 2 * sqrt(partitions)).
	TilesPerAxis int
	// SelfJoin marks r and s as the same dataset.
	SelfJoin bool
}

// vecOf extracts the object vectors of a page payload.
func vecOf(p any) *join.VectorPage { return p.(*join.VectorPage) }

// Run executes the PBSM join of two vector datasets.
func Run(e *join.Engine, r, s *join.Dataset, j join.ObjectJoiner, opts Options) (*join.Report, error) {
	if opts.Eps < 0 {
		return nil, fmt.Errorf("pbsm: negative epsilon")
	}
	return e.Run("PBSM", func(x *join.Exec) error {
		parts := opts.Partitions
		if parts <= 0 {
			// An average partition holds (r+s)/parts pages; a pair should
			// fit into half the buffer.
			total := r.Pages + s.Pages
			parts = (2*total + e.BufferSize - 1) / max(1, e.BufferSize)
			if parts < 1 {
				parts = 1
			}
		}
		tiles := opts.TilesPerAxis
		if tiles <= 0 {
			tiles = 2 * int(math.Ceil(math.Sqrt(float64(parts))))
		}

		g, err := newGrid(x, r, s, tiles, parts)
		if err != nil {
			return err
		}

		// Partition phase: sequential scan of both datasets; objects
		// appended to per-partition staging, flushed as pages to partition
		// files.
		rParts, err := g.partition(x, r, opts.Eps, false)
		if err != nil {
			return err
		}
		sParts, err := g.partition(x, s, opts.Eps, true)
		if err != nil {
			return err
		}

		// Join phase: one partition pair at a time, block-nested inside the
		// partition when it does not fit the buffer.
		for p := 0; p < parts; p++ {
			// A partition pair is one unit of work; cancellation is honored
			// at its boundary.
			if err := x.Err(); err != nil {
				return err
			}
			rf, sf := rParts[p], sParts[p]
			rn, sn := x.IO.NumPages(rf), x.IO.NumPages(sf)
			if rn == 0 || sn == 0 {
				continue
			}
			block := e.BufferSize - 1
			for lo := 0; lo < rn; lo += block {
				hi := lo + block
				if hi > rn {
					hi = rn
				}
				if err := x.Pool.Flush(); err != nil {
					return err
				}
				for pg := lo; pg < hi; pg++ {
					if _, err := x.Pool.GetPinned(disk.PageAddr{File: rf, Page: pg}); err != nil {
						return err
					}
				}
				for q := 0; q < sn; q++ {
					sp, err := x.Pool.Get(disk.PageAddr{File: sf, Page: q})
					if err != nil {
						return err
					}
					for pg := lo; pg < hi; pg++ {
						rp, err := x.Pool.Get(disk.PageAddr{File: rf, Page: pg})
						if err != nil {
							return err
						}
						x.JoinPayloads(j, rp.Payload, sp.Payload)
					}
				}
				x.Flush()
				x.Pool.UnpinAll()
			}
		}
		return nil
	})
}

// grid maps object locations to tiles and tiles to partitions.
type grid struct {
	min, width [2]float64
	tiles      int
	parts      int
	perPage    int
}

// newGrid bounds the joint data space on (up to) the first two dimensions by
// scanning the index MBRs (free: the hierarchy is memory resident).
func newGrid(x *join.Exec, r, s *join.Dataset, tiles, parts int) (*grid, error) {
	bound := geom.Union(r.Root.MBR, s.Root.MBR)
	if bound.IsEmpty() {
		return nil, fmt.Errorf("pbsm: empty data space")
	}
	g := &grid{tiles: tiles, parts: parts}
	for d := 0; d < 2; d++ {
		if d < bound.Dim() {
			g.min[d] = bound.Min[d]
			g.width[d] = (bound.Max[d] - bound.Min[d]) / float64(tiles)
			if g.width[d] <= 0 {
				g.width[d] = 1
			}
		} else {
			g.width[d] = math.Inf(1)
		}
	}
	// Partition pages hold as many objects as source pages.
	//lint:ignore bufferbypass free metadata inspection of one page to size partition pages; not a data-path read
	pg, err := x.IO.Peek(disk.PageAddr{File: r.File, Page: 0})
	if err != nil {
		return nil, err
	}
	g.perPage = len(vecOf(pg.Payload).IDs)
	if g.perPage < 1 {
		g.perPage = 1
	}
	return g, nil
}

func (g *grid) tileCoord(d int, x float64) int {
	if math.IsInf(g.width[d], 1) {
		return 0
	}
	t := int((x - g.min[d]) / g.width[d])
	if t < 0 {
		t = 0
	}
	if t >= g.tiles {
		t = g.tiles - 1
	}
	return t
}

// tileRange returns the inclusive tile interval intersecting [lo, hi] on
// dimension d.
func (g *grid) tileRange(d int, lo, hi float64) (int, int) {
	return g.tileCoord(d, lo), g.tileCoord(d, hi)
}

func (g *grid) partOf(tx, ty int) int { return (tx*g.tiles + ty) % g.parts }

// partition scans the dataset sequentially and writes each object into its
// partition file(s): uniquely by location when replicate is false, or to
// every partition whose tiles the object's ε-box intersects when true.
func (g *grid) partition(x *join.Exec, d *join.Dataset, eps float64, replicate bool) ([]disk.FileID, error) {
	files := make([]disk.FileID, g.parts)
	// Each partition stages its next page as IDs plus a flat block the rows
	// are copied into, so a staged page never aliases the source page it was
	// read from (a file-backed read is a view of the store's mapping, which
	// the partition files outlive) and arrives with its kernel block.
	ids := make([][]int, g.parts)
	rows := make([]*kernel.FlatPage, g.parts)
	for p := range files {
		files[p] = x.IO.CreateFile()
	}
	flush := func(p int) error {
		if len(ids[p]) == 0 {
			return nil
		}
		page := join.NewVectorPage(ids[p], rows[p])
		ids[p], rows[p] = nil, nil
		addr, err := x.IO.AppendPage(files[p], page)
		if err != nil {
			return err
		}
		//lint:ignore bufferbypass partition staging writes are charged directly; the pool has no write path
		return x.IO.Write(addr, page)
	}
	add := func(p, id int, v geom.Vector) error {
		if rows[p] == nil {
			ids[p] = make([]int, 0, g.perPage)
			rows[p] = kernel.NewFlatPage(len(v), g.perPage)
		}
		ids[p] = append(ids[p], id)
		rows[p].AppendRow(v)
		if len(ids[p]) >= g.perPage {
			return flush(p)
		}
		return nil
	}

	seen := make(map[int]struct{}, g.parts)
	for pg := 0; pg < d.Pages; pg++ {
		// One sequential pass over the source file; charged directly so the
		// pool's frames stay free for the join phase that follows.
		//lint:ignore bufferbypass sequential partition scan charged directly, pool reserved for the join phase
		page, err := x.IO.Read(disk.PageAddr{File: d.File, Page: pg})
		if err != nil {
			return nil, err
		}
		vp := vecOf(page.Payload)
		for i, v := range vp.Vecs {
			if !replicate {
				tx := g.tileCoord(0, v[0])
				ty := 0
				if len(v) > 1 {
					ty = g.tileCoord(1, v[1])
				}
				if err := add(g.partOf(tx, ty), vp.IDs[i], v); err != nil {
					return nil, err
				}
				continue
			}
			xLo, xHi := g.tileRange(0, v[0]-eps, v[0]+eps)
			yLo, yHi := 0, 0
			if len(v) > 1 {
				yLo, yHi = g.tileRange(1, v[1]-eps, v[1]+eps)
			}
			// Several tiles can map to one partition; replicate once per
			// partition.
			clear(seen)
			for tx := xLo; tx <= xHi; tx++ {
				for ty := yLo; ty <= yHi; ty++ {
					p := g.partOf(tx, ty)
					if _, dup := seen[p]; dup {
						continue
					}
					seen[p] = struct{}{}
					if err := add(p, vp.IDs[i], v); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	for p := range files {
		if err := flush(p); err != nil {
			return nil, err
		}
	}
	return files, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
