// Package ego implements the Epsilon Grid Ordering join of Böhm,
// Braunmüller, Krebs and Kriegel (SIGMOD 2001), one of the paper's two
// strong baselines (§9).
//
// Points are ordered lexicographically by their ε-width grid cell. For
// reorderable data (point/spatial/vector), both datasets are rewritten to
// disk in grid order with an external merge sort, then joined with a sweep
// over the ε interval of the ordering. Sequence data cannot be reordered on
// disk (§2.1, §9.2): the references are sorted but every object access goes
// to its home page, which produces the random-seek-heavy access pattern the
// paper reports.
package ego

import (
	"sort"

	"pmjoin/internal/disk"
	"pmjoin/internal/join"
	"pmjoin/internal/kernel"
)

// Adapter gives the EGO join what a page does not say about its objects:
// their grid cells. Object counts and IDs, the self-join skip and
// reordering are read off the pages, and the join's ObjectJoiner decides and
// prices each candidate pair.
type Adapter interface {
	// GridKey returns the ε-grid cell coordinates of object i of pg.
	GridKey(pg *disk.Page, i int) []int
}

// ObjectRef identifies one object by home page and slot.
type ObjectRef struct {
	Page, Slot int
	Key        []int
}

// Options configures an EGO run.
type Options struct {
	SelfJoin bool
	// ExcludeOverlap skips self-join pairs of windows whose starts are
	// closer than this (see join.SelfSkip); 0 disables.
	ExcludeOverlap int
}

// Run executes the EGO join of r and s. Candidate pairs are verified by j's
// PairTest, the test j.JoinCells applies, so EGO finds the pairs every other
// method finds. The executor itself is serial (Engine.Workers is not
// consulted); it runs inside an Engine.Run scope so its I/O is charged to a
// per-run session like every other method.
func Run(e *join.Engine, r, s *join.Dataset, j join.ObjectJoiner, ad Adapter, opts Options) (*join.Report, error) {
	test := j.PairTest()
	return e.Run("EGO", func(x *join.Exec) error {
		rRefs, rData, err := prepare(e, x, r, ad)
		if err != nil {
			return err
		}
		var sRefs []ObjectRef
		var sData *join.Dataset
		if opts.SelfJoin && s.File == r.File {
			sRefs, sData = rRefs, rData
		} else {
			sRefs, sData, err = prepare(e, x, s, ad)
			if err != nil {
				return err
			}
		}
		// Pin as large an R block as the buffer allows: the S range is
		// walked in one ascending pass, so it needs only the remaining
		// frames, and the total S pages touched shrink as blocks grow.
		return sweep(x, rData, sData, rRefs, sRefs, test, opts, e.BufferSize-2)
	})
}

// prepare scans the dataset once (sequential), builds grid-ordered object
// references, and — when the data is reorderable, vector pages only —
// materializes a reordered copy in a file of the run's session, charging
// the I/O of an external merge sort.
func prepare(e *join.Engine, x *join.Exec, d *join.Dataset, ad Adapter) ([]ObjectRef, *join.Dataset, error) {
	var refs []ObjectRef
	perPage := 1
	reorderable := true
	for p := 0; p < d.Pages; p++ {
		// The reference scan streams the file once in page order; it is
		// charged directly (all sequential transfers) and must not populate
		// the pool, whose frames belong to the sweep phase.
		//lint:ignore bufferbypass sequential reference scan charged directly, pool reserved for the sweep
		pg, err := x.IO.Read(disk.PageAddr{File: d.File, Page: p})
		if err != nil {
			return nil, nil, err
		}
		if pg.Kind != disk.Vectors {
			reorderable = false
		}
		n := len(pg.IDs)
		if n > perPage {
			// The reordered copy packs pages to the source capacity; using
			// the fullest page avoids inflating the temp file when the
			// first source page happens to be an underfull boundary node.
			perPage = n
		}
		for i := 0; i < n; i++ {
			refs = append(refs, ObjectRef{Page: p, Slot: i, Key: ad.GridKey(pg, i)})
		}
	}
	sort.SliceStable(refs, func(i, j int) bool { return lessKey(refs[i].Key, refs[j].Key) })

	if !reorderable {
		// Sequence data stays in place: objects will be fetched from their
		// home pages in grid order during the sweep.
		return refs, d, nil
	}

	// Write the reordered copy, page by page (sequential writes).
	// The input was already read sequentially by the reference scan above;
	// run formation consumes those buffered chunks, so gathering objects
	// here is not billed again (Peek). The billed sort I/O is the run
	// writes below plus the merge passes.
	tmp := x.IO.CreateFile()
	newRefs := make([]ObjectRef, 0, len(refs))
	for lo := 0; lo < len(refs); lo += perPage {
		hi := lo + perPage
		if hi > len(refs) {
			hi = len(refs)
		}
		pg, err := repage(x, d.File, refs[lo:hi])
		if err != nil {
			return nil, nil, err
		}
		addr, err := x.IO.AppendPage(tmp, pg)
		if err != nil {
			return nil, nil, err
		}
		//lint:ignore bufferbypass run-formation writes are charged directly; the pool has no write path
		if err := x.IO.Write(addr, pg); err != nil { // charge the write
			return nil, nil, err
		}
		for i := lo; i < hi; i++ {
			newRefs = append(newRefs, ObjectRef{Page: addr.Page, Slot: i - lo, Key: refs[i].Key})
		}
	}
	if err := chargeMergePasses(e, x, tmp); err != nil {
		return nil, nil, err
	}
	out := &join.Dataset{Name: d.Name + "-ego", File: tmp, Pages: x.IO.NumPages(tmp)}
	return newRefs, out, nil
}

// repage builds the vector page holding the given objects, in order, copied
// from their home pages of file f.
func repage(x *join.Exec, f disk.FileID, objs []ObjectRef) (disk.Page, error) {
	pg := disk.Page{Kind: disk.Vectors, IDs: make([]int, 0, len(objs))}
	for i, o := range objs {
		//lint:ignore bufferbypass free re-inspection of pages the reference scan already paid for
		src, err := x.IO.Peek(disk.PageAddr{File: f, Page: o.Page})
		if err != nil {
			return disk.Page{}, err
		}
		if i == 0 {
			pg.Flat = *kernel.NewFlatPage(src.Flat.Dim, len(objs))
		}
		pg.IDs = append(pg.IDs, src.IDs[o.Slot])
		pg.Flat.AppendRow(src.Flat.Row(o.Slot))
	}
	return pg, nil
}

// chargeMergePasses charges the I/O of the merge passes of an external sort
// of the temp file: initial runs of B pages, (B-1)-way merges until sorted.
// Each pass reads the file with run-interleaved accesses (seek-heavy) and
// rewrites it sequentially. The sort owns the whole buffer while it runs, so
// its traffic is charged directly on the disk rather than through the pool.
func chargeMergePasses(e *join.Engine, x *join.Exec, f disk.FileID) error {
	n := x.IO.NumPages(f)
	if n == 0 {
		return nil
	}
	runs := (n + e.BufferSize - 1) / e.BufferSize
	fan := e.BufferSize - 1
	if fan < 2 {
		fan = 2
	}
	runLen := e.BufferSize
	for runs > 1 {
		// Each run is one sequential stream; switching between the merged
		// streams costs one seek per run (buffered k-way merge reads each
		// run in large sequential chunks). Charge the seeks by touching the
		// run starts in descending order, then stream the file.
		for start := ((runs - 1) * runLen); start >= 0; start -= runLen {
			if start < n {
				//lint:ignore bufferbypass external-sort cost model charges merge-pass seeks directly
				if _, err := x.IO.Read(disk.PageAddr{File: f, Page: start}); err != nil {
					return err
				}
			}
		}
		for p := 0; p < n; p++ {
			//lint:ignore bufferbypass external-sort cost model charges merge-pass transfers directly
			if _, err := x.IO.Read(disk.PageAddr{File: f, Page: p}); err != nil {
				return err
			}
		}
		// Sequential rewrite.
		for p := 0; p < n; p++ {
			//lint:ignore bufferbypass free fetch of the page being rewritten; the Write below carries the charge
			pg, err := x.IO.Peek(disk.PageAddr{File: f, Page: p})
			if err != nil {
				return err
			}
			//lint:ignore bufferbypass external-sort rewrite is charged directly; the pool has no write path
			if err := x.IO.Write(disk.PageAddr{File: f, Page: p}, *pg); err != nil {
				return err
			}
		}
		runs = (runs + fan - 1) / fan
		runLen *= fan
	}
	return nil
}

// sweep runs the blocked EGO-join over the grid-ordered references.
//
// The epsilon-grid-order interval theorem (Böhm et al., SIGMOD 2001): every
// candidate partner of x lies, in the lexicographic grid order, between
// x.key − (1,...,1) and x.key + (1,...,1). The candidates of a contiguous
// block of R therefore form one contiguous range of the sorted S sequence.
// The sweep pins one R block at a time (up to half the buffer), walks its S
// range in order — monotonically advancing, so consecutive blocks reuse the
// overlap through the buffer — and verifies cell-adjacent pairs exactly.
//
// For reorderable data the sorted references are page-contiguous in the
// reordered file, making the range walk sequential. For in-place sequence
// data every touched object faults its home page, which is where the
// paper's reported degradation on sequence data comes from.
func sweep(x *join.Exec, rData, sData *join.Dataset, rRefs, sRefs []ObjectRef, test join.PairTest, opts Options, blockPages int) error {
	if len(rRefs) == 0 || len(sRefs) == 0 {
		return nil
	}
	if blockPages < 1 {
		blockPages = 1
	}
	for start := 0; start < len(rRefs); {
		// A block is one unit of work: cancellation is honored at its
		// boundary, like a cluster in the clustered executor.
		if err := x.Err(); err != nil {
			return err
		}
		// Grow the block until it spans blockPages distinct home pages.
		end := start + 1
		pages := 1
		last := rRefs[start].Page
		for end < len(rRefs) {
			if rRefs[end].Page != last {
				if pages == blockPages {
					break
				}
				pages++
				last = rRefs[end].Page
			}
			end++
		}
		block := rRefs[start:end]
		touched := make(map[int]struct{}, pages)
		for i := range block {
			touched[block[i].Page] = struct{}{}
		}
		if err := pinBlock(x, rData.File, touched); err != nil {
			return err
		}

		// The block's candidate range of S in grid order.
		loKey := addAll(block[0].Key, -1)
		hiKey := addAll(block[len(block)-1].Key, +1)
		lo := sort.Search(len(sRefs), func(i int) bool { return !lessKey(sRefs[i].Key, loKey) })
		hi := sort.Search(len(sRefs), func(i int) bool { return lessKey(hiKey, sRefs[i].Key) })

		for k := lo; k < hi; k++ {
			sb := sRefs[k]
			var pb *disk.Page // fetched lazily on the first adjacent pair
			for i := range block {
				if !cellsAdjacent(block[i].Key, sb.Key) {
					continue
				}
				if pb == nil {
					var err error
					pb, err = x.Pool.Get(disk.PageAddr{File: sData.File, Page: sb.Page})
					if err != nil {
						return err
					}
				}
				pa, err := x.Pool.Get(disk.PageAddr{File: rData.File, Page: block[i].Page})
				if err != nil {
					return err
				}
				slot := block[i].Slot
				if opts.SelfJoin && join.SelfSkip(pa, slot, pb, sb.Slot, opts.ExcludeOverlap) {
					continue
				}
				x.Rep.Comparisons++
				match, cpu := test(pa, slot, pb, sb.Slot)
				x.Rep.CPUJoinSeconds += cpu
				if match {
					x.Emit(pa.IDs[slot], pb.IDs[sb.Slot])
				}
			}
		}
		x.Pool.UnpinAll()
		start = end
	}
	return nil
}

// pinBlock pins a block's pages, fetching missing ones in ascending page
// order (sequential runs on disk). The pins are taken on behalf of the
// caller: sweep joins against the pinned block and drops every pin with
// UnpinAll once the block is exhausted.
func pinBlock(x *join.Exec, f disk.FileID, touched map[int]struct{}) error {
	pages := make([]int, 0, len(touched))
	for p := range touched {
		pages = append(pages, p)
	}
	sort.Ints(pages)
	for _, p := range pages {
		if _, err := x.Pool.GetPinned(disk.PageAddr{File: f, Page: p}); err != nil {
			return err
		}
	}
	return nil
}

// addAll returns key with delta added to every coordinate.
func addAll(key []int, delta int) []int {
	out := make([]int, len(key))
	for i, k := range key {
		out[i] = k + delta
	}
	return out
}

func cellsAdjacent(a, b []int) bool {
	for i := range a {
		d := a[i] - b[i]
		if d > 1 || d < -1 {
			return false
		}
	}
	return true
}

func lessKey(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
