package pbsm

import (
	"math/rand"
	"testing"

	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/join"
	"pmjoin/internal/rstar"
)

func buildDataset(t *testing.T, d *disk.Disk, rng *rand.Rand, n, leafCap, dim int) (*join.Dataset, []geom.Vector) {
	t.Helper()
	items := make([]rstar.Item, n)
	vecs := make([]geom.Vector, n)
	for i := range items {
		v := make(geom.Vector, dim)
		for k := range v {
			v[k] = rng.Float64()
		}
		vecs[i] = v
		items[i] = rstar.PointItem(i, v)
	}
	tr, err := rstar.BulkLoadSTR(dim, rstar.DefaultConfig(leafCap), items)
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
		if _, err := d.AppendPage(f, join.VectorPageOf(ids, vs)); err != nil {
			t.Fatal(err)
		}
	}
	return &join.Dataset{Name: "ds", File: f, Root: tr.Root(), Pages: len(pages)}, vecs
}

func brute(a, b []geom.Vector, eps float64, self bool) int64 {
	var n int64
	for i, va := range a {
		for k, vb := range b {
			if self && i >= k {
				continue
			}
			if geom.L2.Dist(va, vb) <= eps {
				n++
			}
		}
	}
	return n
}

func TestPBSMMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := disk.New(disk.DefaultModel())
	da, va := buildDataset(t, d, rng, 400, 8, 2)
	db, vb := buildDataset(t, d, rng, 300, 8, 2)
	const eps = 0.06
	e := &join.Engine{Disk: d, BufferSize: 16}
	rep, err := Run(e, da, db, join.VectorJoiner{Norm: geom.L2, Eps: eps}, Options{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if want := brute(va, vb, eps, false); rep.Results != want {
		t.Fatalf("results = %d, want %d", rep.Results, want)
	}
	if rep.PageReads == 0 || rep.IOSeconds <= 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestPBSMSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := disk.New(disk.DefaultModel())
	da, va := buildDataset(t, d, rng, 350, 8, 2)
	const eps = 0.05
	e := &join.Engine{Disk: d, BufferSize: 16}
	rep, err := Run(e, da, da, join.VectorJoiner{Norm: geom.L2, Eps: eps, Self: true},
		Options{Eps: eps, SelfJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := brute(va, va, eps, true); rep.Results != want {
		t.Fatalf("results = %d, want %d", rep.Results, want)
	}
}

func TestPBSMNoDuplicatesAcrossPartitionCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := disk.New(disk.DefaultModel())
	da, va := buildDataset(t, d, rng, 400, 8, 2)
	db, vb := buildDataset(t, d, rng, 400, 8, 2)
	const eps = 0.07
	want := brute(va, vb, eps, false)
	for _, parts := range []int{1, 3, 7, 16} {
		e := &join.Engine{Disk: d, BufferSize: 12}
		rep, err := Run(e, da, db, join.VectorJoiner{Norm: geom.L2, Eps: eps},
			Options{Eps: eps, Partitions: parts})
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		if rep.Results != want {
			t.Fatalf("parts=%d: results %d, want %d (replication dedup broken)", parts, rep.Results, want)
		}
	}
}

func TestPBSMHighDimensional(t *testing.T) {
	// Tiling uses only the first two dimensions; correctness must hold in
	// any dimensionality.
	rng := rand.New(rand.NewSource(4))
	d := disk.New(disk.DefaultModel())
	da, va := buildDataset(t, d, rng, 250, 6, 6)
	db, vb := buildDataset(t, d, rng, 250, 6, 6)
	eps := 0.45
	e := &join.Engine{Disk: d, BufferSize: 16}
	rep, err := Run(e, da, db, join.VectorJoiner{Norm: geom.L2, Eps: eps}, Options{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if want := brute(va, vb, eps, false); rep.Results != want {
		t.Fatalf("results = %d, want %d", rep.Results, want)
	}
}

func TestPBSMOneDimensional(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := disk.New(disk.DefaultModel())
	da, va := buildDataset(t, d, rng, 300, 8, 1)
	db, vb := buildDataset(t, d, rng, 300, 8, 1)
	const eps = 0.01
	e := &join.Engine{Disk: d, BufferSize: 12}
	rep, err := Run(e, da, db, join.VectorJoiner{Norm: geom.L2, Eps: eps}, Options{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if want := brute(va, vb, eps, false); rep.Results != want {
		t.Fatalf("results = %d, want %d", rep.Results, want)
	}
}

func TestPBSMRejectsNegativeEps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := disk.New(disk.DefaultModel())
	da, _ := buildDataset(t, d, rng, 50, 8, 2)
	e := &join.Engine{Disk: d, BufferSize: 8}
	if _, err := Run(e, da, da, join.VectorJoiner{Norm: geom.L2, Eps: 1}, Options{Eps: -1}); err == nil {
		t.Fatal("negative eps accepted")
	}
}
