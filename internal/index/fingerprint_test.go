package index_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"pmjoin/internal/dataset"
	"pmjoin/internal/index"
	"pmjoin/internal/mrindex"
	"pmjoin/internal/mrsindex"
	"pmjoin/internal/seqdist"
)

// put64 writes x to h as 8 little-endian bytes.
func put64(h hash.Hash64, x uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x)
	h.Write(buf[:])
}

// hashTree adds to h every node of the tree under n, depth first: its child
// count, its page and its MBR corner bits.
func hashTree(h hash.Hash64, n *index.Node) {
	put64(h, uint64(len(n.Children)))
	put64(h, uint64(n.Page))
	for _, c := range [][]float64{n.MBR.Min, n.MBR.Max} {
		for _, x := range c {
			put64(h, math.Float64bits(x))
		}
	}
	for _, c := range n.Children {
		hashTree(h, c)
	}
}

// hashInts adds len(xs) and then each of xs to h.
func hashInts(h hash.Hash64, xs []int) {
	put64(h, uint64(len(xs)))
	for _, x := range xs {
		put64(h, uint64(x))
	}
}

// TestSequenceTreeFingerprint pins the MR- and MRS-index trees and page
// layouts to the ones the two packages built when each still held its own
// copy of the sliding-window layout: the values below were recorded from
// that code. The MRS shapes are dna_edit's (BenchmarkBuildDNAShape's input in
// internal/predmat), the MR shape a strided random walk at 4 KB pages. A
// change here moves every page of a sequence join, and with it every exact
// counter of the benchmark.
func TestSequenceTreeFingerprint(t *testing.T) {
	mrs := func(n int, seed int64) func(hash.Hash64) error {
		return func(h hash.Hash64) error {
			ix, err := mrsindex.Build(dataset.DNA(n, seed), seqdist.DNA,
				mrsindex.Config{Window: 500, Stride: 32, PageBytes: 4096})
			if err != nil {
				return err
			}
			for p := 0; p < ix.NumPages(); p++ {
				ids, starts, _, freqs := ix.PageWindows(p)
				hashInts(h, ids)
				hashInts(h, starts)
				for _, f := range freqs {
					hashInts(h, f)
				}
			}
			hashTree(h, ix.Root())
			return nil
		}
	}
	mr := func(n int, seed int64) func(hash.Hash64) error {
		return func(h hash.Hash64) error {
			ix, err := mrindex.Build(dataset.RandomWalk(n, seed),
				mrindex.Config{Window: 128, Stride: 8, Features: 8, PageSamples: 512})
			if err != nil {
				return err
			}
			for p := 0; p < ix.NumPages(); p++ {
				ids, starts, _ := ix.PageWindows(p)
				hashInts(h, ids)
				hashInts(h, starts)
			}
			hashTree(h, ix.Root())
			return nil
		}
	}
	cases := []struct {
		name  string
		build func(hash.Hash64) error
		want  uint64
	}{
		{"mrs/HChr18", mrs(dataset.HChr18Size/4, 7), 0x0e242a6c99033b68},
		{"mrs/MChr18", mrs(dataset.MChr18Size/4, 8), 0x63ff0c3e4dc3b2ef},
		{"mr/walk", mr(200000, 1), 0xec52bcf1b0ce1f90},
	}
	for _, c := range cases {
		h := fnv.New64()
		if err := c.build(h); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: fingerprint %#x, want %#x", c.name, got, c.want)
		}
	}
}
