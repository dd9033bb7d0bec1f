package rstar

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"pmjoin/internal/dataset"
	"pmjoin/internal/geom"
	"pmjoin/internal/index"
)

// treeFingerprint hashes a packed tree with FNV-64: every page's length and
// IDs in page order, then every node's child count and MBR corner bits,
// depth first, so any change to the pages, their order or the hierarchy
// changes it (barring a hash collision).
func treeFingerprint(tr *Tree) uint64 {
	h := fnv.New64()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, pg := range tr.Pack() {
		put(uint64(len(pg)))
		for _, it := range pg {
			put(uint64(it.ID))
		}
	}
	var walk func(n *index.Node)
	walk = func(n *index.Node) {
		put(uint64(len(n.Children)))
		for _, c := range [][]float64{n.MBR.Min, n.MBR.Max} {
			for _, x := range c {
				put(math.Float64bits(x))
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tr.Root())
	return h.Sum64()
}

// TestSTRTreeFingerprint pins the packed tree to the one the STR loader
// built before it was rewritten to emit the index.Node hierarchy directly:
// the values below were recorded from that loader. A change here moves
// every page, and with it every exact counter of the benchmark.
func TestSTRTreeFingerprint(t *testing.T) {
	cases := []struct {
		shape string
		seed  int64
		want  uint64
	}{
		{"landsat", 1, 0xe2bceb43b2af34c8},
		{"landsat", 2, 0x998e19dc08045c9f},
		{"roads", 1, 0x8f3603bf9f51e5e4},
		{"roads", 2, 0xf1ede3ae48ce2f1c},
	}
	for _, c := range cases {
		var vecs []geom.Vector
		var perPage int
		switch c.shape {
		case "landsat": // 60-d at 4 KB pages: 8 vectors a page
			vecs, perPage = dataset.Landsat(8000, 60, c.seed), 4096/(8*60+8)
		case "roads": // 2-d at 1 KB pages: 42 points a page
			vecs, perPage = dataset.RoadIntersections(20000, c.seed), 1024/(8*2+8)
		}
		items := make([]Item, len(vecs))
		for i, v := range vecs {
			items[i] = PointItem(i, v)
		}
		tr, err := BulkLoadSTR(len(vecs[0]), DefaultConfig(perPage), items)
		if err != nil {
			t.Fatal(err)
		}
		if got := treeFingerprint(tr); got != c.want {
			t.Errorf("%s/seed=%d: fingerprint %#x, want %#x", c.shape, c.seed, got, c.want)
		}
	}
}
