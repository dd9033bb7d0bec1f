package join

import (
	"math"
	"math/rand"
	"testing"

	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/kernel"
)

// runJoiners are the joiner kinds FuzzRunVsReference picks from: vector
// joins under L1, L2 and L∞, self and not, series joins with and without the
// self join's overlap exclusion, and string joins, self and not. The
// threshold is the fuzzer's ε, set by runJoiner.
var runJoiners = []ObjectJoiner{
	VectorJoiner{Norm: geom.L1}, VectorJoiner{Norm: geom.L2}, VectorJoiner{Norm: geom.LInf},
	VectorJoiner{Norm: geom.L1, Self: true}, VectorJoiner{Norm: geom.L2, Self: true}, VectorJoiner{Norm: geom.LInf, Self: true},
	SeriesJoiner{}, SeriesJoiner{Self: true}, SeriesJoiner{Self: true, ExcludeOverlap: 8},
	StringJoiner{}, StringJoiner{Self: true, ExcludeOverlap: 8},
}

// runJoiner returns runJoiners[kind] at threshold eps; a string join takes
// |eps| mod 12, rounded down, as its edit bound.
func runJoiner(kind uint8, eps float64) ObjectJoiner {
	switch j := runJoiners[int(kind)%len(runJoiners)].(type) {
	case VectorJoiner:
		j.Eps = eps
		return j
	case SeriesJoiner:
		j.Eps = eps
		return j
	case StringJoiner:
		if a := math.Abs(eps); a < 1e6 {
			j.MaxEdit = int(a) % 12
		}
		return j
	default:
		panic(j)
	}
}

// runPages draws n pages of kind k for the joiner's sides, with IDs from
// firstID up, each holding up to maxRows objects (possibly none). Series
// windows start four apart, so the overlap exclusion skips neighbours.
// Vector and series pages of the S side (dups non-nil) take some rows of the
// R side as exact copies, so ε = 0 has matches to find.
func runPages(rng *rand.Rand, k disk.Kind, n, firstID, maxRows, dim int, dups []*disk.Page) []*disk.Page {
	pages := make([]*disk.Page, n)
	id := firstID
	for p := range pages {
		rows := rng.Intn(maxRows + 1)
		switch k {
		case disk.Strings:
			pg := &disk.Page{Kind: disk.Strings}
			for range rows {
				win, freq := make([]byte, 12), make([]int, 4)
				for c := range win {
					s := rng.Intn(4) * rng.Intn(2)
					win[c] = "ACGT"[s]
					freq[s]++
				}
				pg.IDs = append(pg.IDs, id)
				pg.Starts = append(pg.Starts, 4*id)
				pg.Windows = append(pg.Windows, win)
				pg.Freqs = append(pg.Freqs, freq)
				id++
			}
			pages[p] = pg
		default:
			if k == disk.Series {
				pages[p] = randSeriesPage(rng, id, rows, dim, 4)
			} else {
				pages[p] = randVectorPage(rng, id, rows, dim)
			}
			id += rows
			for i := range rows {
				if len(dups) == 0 || rng.Intn(3) != 0 {
					continue
				}
				if src := dups[rng.Intn(len(dups))]; src.Flat.N > 0 {
					copy(pages[p].Flat.Row(i), src.Flat.Row(rng.Intn(src.Flat.N)))
				}
			}
		}
	}
	return pages
}

// FuzzRunVsReference holds one comparison run — a task of up to taskCells
// cells over two sides, evaluated by its joiner's JoinCells a few cells a
// call and translated into pairs through the sides' IDs — to the per-pair
// reference loops over the same cells in the same order: the same pair
// stream, equal comparisons and result count, and bit-equal CPU seconds,
// folded cell by cell as merge folds them. shape picks the page counts of
// the sides, the row dimensionality (2, 8 or 60: the block kernel's plain
// and four-probe paths) and whether pages hold up to 6 objects or up to 40,
// where one cell outgrows a JoinCells call. A self join's two sides draw
// their IDs from one range, so the id skip is in play.
func FuzzRunVsReference(f *testing.F) {
	for kind := range len(runJoiners) {
		f.Add(int64(kind), uint8(kind), 0.9, uint8(0x25))
		f.Add(int64(kind+100), uint8(kind), 0.0, uint8(0x1f))
	}
	f.Add(int64(7), uint8(1), 3.0, uint8(0x4a))
	f.Add(int64(8), uint8(4), 3.0, uint8(0x5b))
	f.Add(int64(9), uint8(0), -1.0, uint8(0x33))
	f.Add(int64(10), uint8(9), 5.0, uint8(0x13))
	f.Add(int64(11), uint8(2), math.NaN(), uint8(0x21))

	f.Fuzz(func(t *testing.T, seed int64, kind uint8, eps float64, shape uint8) {
		j := runJoiner(kind, eps)
		rng := rand.New(rand.NewSource(seed))
		k, self := disk.Strings, false
		switch j := j.(type) {
		case VectorJoiner:
			k, self = disk.Vectors, j.Self
		case SeriesJoiner:
			k, self = disk.Series, j.Self
		case StringJoiner:
			self = j.Self
		}
		dim := []int{2, 8, 60}[int(shape>>5)%3]
		maxRows := 6
		if shape&0x10 != 0 {
			maxRows = 40
		}
		nR, nS := 1+int(shape)%4, 1+int(shape>>2)%4
		var set cellSet
		rPages := runPages(rng, k, nR, 0, maxRows, dim, nil)
		firstS := 1000
		if self {
			firstS = rng.Intn(2 * maxRows)
		}
		sPages := runPages(rng, k, nS, firstS, maxRows, dim, rPages)
		for _, p := range rPages {
			set.r.add(p)
		}
		for _, p := range sPages {
			set.s.add(p)
		}
		for range 1 + rng.Intn(taskCells) {
			set.cells = append(set.cells, kernel.Cell{R: rng.Intn(nR), S: rng.Intn(nS)})
		}

		var want joinTrace
		for _, c := range set.cells {
			want.add(func(emit func(int, int)) (int64, float64) {
				return refJoinPages(j, rPages[c.R], sPages[c.S], emit)
			})
		}
		run := &task{capture: true, j: j, in: &set, cells: set.cells}
		run.run()
		got := joinTrace{comps: run.out.Comps}
		for _, cpu := range run.out.CPU {
			got.cpu += cpu
		}
		for _, c := range run.pairs {
			got.pairs = append(got.pairs, c...)
		}
		got.check(t, want)
		if len(run.out.CPU) != len(set.cells) || run.results != int64(len(want.pairs)) {
			t.Errorf("%d cells gave %d CPU entries and %d results; the reference %d results",
				len(set.cells), len(run.out.CPU), run.results, len(want.pairs))
		}
		for _, c := range run.pairs {
			releaseChunk(c)
		}
	})
}
