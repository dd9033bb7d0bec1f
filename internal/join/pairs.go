package join

import "sync"

// ChunkPairs is the size of a pair chunk, the unit in which result pairs are
// written, linked and capped: 4 096 pairs, 64 KiB.
const ChunkPairs = 1 << 12

type chunk = [ChunkPairs][2]int

// chunkPool recycles pair chunks within and between joins. Every chunk a
// collector or task holds comes from here and returns here once MergePairs
// has copied it out.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

func newChunk() [][2]int { return chunkPool.Get().(*chunk)[:0] }

func releaseChunk(c [][2]int) { chunkPool.Put((*chunk)(c[:ChunkPairs])) }

// pairChunks is an ordered sequence of pairs held in pooled chunks. A chunk
// may end short of its capacity; only the last one takes new pairs.
type pairChunks [][][2]int

// next appends up to n slots to the sequence, all in its last chunk (a fresh
// one when the last is full), and returns them for the caller to fill.
func (cs *pairChunks) next(n int) [][2]int {
	last := len(*cs) - 1
	if last < 0 || len((*cs)[last]) == ChunkPairs {
		*cs = append(*cs, newChunk())
		last++
	}
	c := (*cs)[last]
	k := min(n, ChunkPairs-len(c))
	(*cs)[last] = c[:len(c)+k]
	return c[len(c) : len(c)+k]
}

// add appends one pair.
func (cs *pairChunks) add(a, b int) { cs.next(1)[0] = [2]int{a, b} }

// Pairs collects a join's result pairs, up to a cap, in emission order. The
// collector lives on the coordinating goroutine: comparison runs write their
// pairs into chunks of their own on the workers, and Exec.Flush links those
// chunks here in submission order, so the order is the serial loop's and no
// code runs per pair on the coordinator. MergePairs turns one or more
// collectors into the final slice.
type Pairs struct {
	max       int
	n         int
	truncated bool
	chunks    pairChunks
}

// NewPairs returns an empty collector that keeps at most maxPairs pairs.
func NewPairs(maxPairs int) *Pairs { return &Pairs{max: maxPairs} }

// full reports that the cap is reached: a run opened now skips translating
// its hits into pairs, since none of them could be kept.
func (p *Pairs) full() bool { return p.n >= p.max }

// Add keeps one pair, or marks the collector truncated once it is full.
func (p *Pairs) Add(a, b int) {
	if p.full() {
		p.truncated = true
		return
	}
	p.chunks.add(a, b)
	p.n++
}

// link appends a run's chunks in order, taking ownership of them, and applies
// the cap chunk by chunk: the chunk that crosses it is cut, the ones after it
// go back to the pool. matched is the run's result count, so a run that kept
// fewer pairs than it matched — cut here, or never translated because the
// collector was already full — marks the collector truncated. A chunk that
// fits into the spare room of the last linked one is copied there instead, so
// runs with a few pairs each do not hold a chunk apiece.
func (p *Pairs) link(cs pairChunks, matched int64) {
	for _, c := range cs {
		c = c[:min(len(c), max(p.max-p.n, 0))]
		p.n += len(c)
		matched -= int64(len(c))
		if last := len(p.chunks) - 1; last >= 0 && len(c) <= ChunkPairs-len(p.chunks[last]) {
			p.chunks[last] = append(p.chunks[last], c...)
			releaseChunk(c)
		} else if len(c) > 0 {
			p.chunks = append(p.chunks, c)
		} else {
			releaseChunk(c)
		}
	}
	if matched > 0 {
		p.truncated = true
	}
}

// MergePairs concatenates the collectors' pairs in order, capped at maxPairs,
// and reports whether more pairs matched than it returns: some collector
// truncated, or the concatenation overflowed the cap. The result is allocated
// once at its exact size, and is nil when no pair is kept. Every chunk goes
// back to the pool, which empties the collectors.
func MergePairs(ps []*Pairs, maxPairs int) ([][2]int, bool) {
	total, truncated := 0, false
	for _, p := range ps {
		total += p.n
		truncated = truncated || p.truncated
	}
	if total > maxPairs {
		total, truncated = max(maxPairs, 0), true
	}
	var out [][2]int
	if total > 0 {
		out = make([][2]int, 0, total)
	}
	for _, p := range ps {
		for _, c := range p.chunks {
			out = append(out, c[:min(len(c), total-len(out))]...)
			releaseChunk(c)
		}
		p.chunks, p.n = nil, 0
	}
	return out, truncated
}
