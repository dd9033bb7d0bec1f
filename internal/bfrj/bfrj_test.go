package bfrj

import (
	"math/rand"
	"testing"

	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/index"
	"pmjoin/internal/join"
	"pmjoin/internal/kernel"
	"pmjoin/internal/predmat"
	"pmjoin/internal/rstar"
)

func buildDataset(t *testing.T, d *disk.Disk, rng *rand.Rand, n, leafCap int) (*join.Dataset, []geom.Vector) {
	t.Helper()
	items := make([]rstar.Item, n)
	vecs := make([]geom.Vector, n)
	for i := range items {
		v := geom.Vector{rng.Float64(), rng.Float64()}
		vecs[i] = v
		items[i] = rstar.PointItem(i, v)
	}
	tr, err := rstar.BulkLoadSTR(2, rstar.DefaultConfig(leafCap), items)
	if err != nil {
		t.Fatal(err)
	}
	pages := tr.Pack()
	f := d.CreateFile()
	for _, pg := range pages {
		var ids []int
		var vs []geom.Vector
		for _, it := range pg {
			ids = append(ids, it.ID)
			vs = append(vs, it.MBR.Min)
		}
		if _, err := d.AppendPage(f, disk.Page{Kind: disk.Vectors, IDs: ids, Flat: kernel.FlatOf(vs)}); err != nil {
			t.Fatal(err)
		}
	}
	return &join.Dataset{Name: "ds", File: f, Root: tr.Root(), Pages: len(pages)}, vecs
}

func brute(a, b []geom.Vector, eps float64) int64 {
	var n int64
	for _, va := range a {
		for _, vb := range b {
			if geom.L2.Dist(va, vb) <= eps {
				n++
			}
		}
	}
	return n
}

func TestBFRJMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := disk.New(disk.DefaultModel())
	da, va := buildDataset(t, d, rng, 400, 8)
	db, vb := buildDataset(t, d, rng, 300, 8)
	const eps = 0.06
	e := &join.Engine{Disk: d, BufferSize: 16}
	rep, err := Run(e, da, db, join.VectorJoiner{Norm: geom.L2, Eps: eps}, Options{
		Eps:  eps,
		Pred: predmat.NormPredictor{Norm: geom.L2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := brute(va, vb, eps); rep.Results != want {
		t.Fatalf("results = %d, want %d", rep.Results, want)
	}
	if rep.PageReads == 0 || rep.IOSeconds <= 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestBFRJSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := disk.New(disk.DefaultModel())
	da, va := buildDataset(t, d, rng, 300, 8)
	const eps = 0.05
	e := &join.Engine{Disk: d, BufferSize: 16}
	rep, err := Run(e, da, da, join.VectorJoiner{Norm: geom.L2, Eps: eps, Self: true}, Options{
		Eps:      eps,
		Pred:     predmat.NormPredictor{Norm: geom.L2},
		SelfJoin: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := (brute(va, va, eps) - int64(len(va))) / 2
	if rep.Results != want {
		t.Fatalf("results = %d, want %d", rep.Results, want)
	}
}

func TestBFRJSpillChargesWithTinyBuffer(t *testing.T) {
	mk := func(buffer, pairsPerPage int) *join.Report {
		rng := rand.New(rand.NewSource(3))
		d := disk.New(disk.DefaultModel())
		da, _ := buildDataset(t, d, rng, 500, 4)
		db, _ := buildDataset(t, d, rng, 500, 4)
		e := &join.Engine{Disk: d, BufferSize: buffer}
		rep, err := Run(e, da, db, join.VectorJoiner{Norm: geom.L2, Eps: 0.08}, Options{
			Eps:          0.08,
			Pred:         predmat.NormPredictor{Norm: geom.L2},
			PairsPerPage: pairsPerPage,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	small := mk(6, 4) // tiny buffer and page capacity force spills
	large := mk(256, 256)
	if small.Results != large.Results {
		t.Fatalf("spilling changed results: %d vs %d", small.Results, large.Results)
	}
	if small.PageReads <= large.PageReads {
		t.Fatalf("spilling should add I/O: %d <= %d", small.PageReads, large.PageReads)
	}
}

// TestBFRJDedupsMultiResolutionLeaves verifies that several leaf boxes per
// page (multi-resolution sequence indexes) do not double-join page pairs.
func TestBFRJDedupsMultiResolutionLeaves(t *testing.T) {
	d := disk.New(disk.DefaultModel())
	f := d.CreateFile()
	pg := disk.Page{Kind: disk.Vectors, IDs: []int{0, 1}, Flat: kernel.FlatOf([]geom.Vector{{0, 0}, {0.1, 0}})}
	if _, err := d.AppendPage(f, pg); err != nil {
		t.Fatal(err)
	}
	// Two leaf boxes both pointing at page 0.
	l1 := &index.Node{MBR: geom.NewMBR(geom.Vector{0, 0}), Page: 0}
	l2 := &index.Node{MBR: geom.NewMBR(geom.Vector{0.1, 0}), Page: 0}
	root := &index.Node{MBR: geom.Union(l1.MBR, l2.MBR), Page: -1, Children: []*index.Node{l1, l2}}
	ds := &join.Dataset{Name: "multi", File: f, Root: root, Pages: 1}

	e := &join.Engine{Disk: d, BufferSize: 8}
	rep, err := Run(e, ds, ds, join.VectorJoiner{Norm: geom.L2, Eps: 1, Self: true}, Options{
		Eps:      1,
		Pred:     predmat.NormPredictor{Norm: geom.L2},
		SelfJoin: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results != 1 {
		t.Fatalf("results = %d, want exactly 1 (dedup)", rep.Results)
	}
}

func TestBFRJLeafOnlyRoots(t *testing.T) {
	// Both hierarchies are single leaves: the pair goes straight to the
	// leaf join.
	d := disk.New(disk.DefaultModel())
	mk := func(x float64) *join.Dataset {
		f := d.CreateFile()
		d.AppendPage(f, disk.Page{Kind: disk.Vectors, IDs: []int{0}, Flat: kernel.FlatOf([]geom.Vector{{x, 0}})})
		root := &index.Node{MBR: geom.NewMBR(geom.Vector{x, 0}), Page: 0}
		return &join.Dataset{Name: "leaf", File: f, Root: root, Pages: 1}
	}
	da := mk(0)
	db := mk(0.5)
	e := &join.Engine{Disk: d, BufferSize: 8}
	rep, err := Run(e, da, db, join.VectorJoiner{Norm: geom.L2, Eps: 1}, Options{
		Eps:  1,
		Pred: predmat.NormPredictor{Norm: geom.L2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results != 1 {
		t.Fatalf("results = %d", rep.Results)
	}
}
