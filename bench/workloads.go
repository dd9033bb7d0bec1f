package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"pmjoin"
	"pmjoin/internal/dataset"
	"pmjoin/internal/geom"
)

// The linear disk model every workload's System is built with (the paper's
// constants). Spelled out so the harness's replica clustering and shard cut
// use exactly the System's terms.
const (
	seekSeconds     = 0.010
	transferSeconds = 0.001
)

const serveMix = "serve_mix"

// Shape seeds fix each generator's statistical structure (Landsat's spectral
// profiles, the road networks, the isochore layout) as part of the workload
// definition; -seed then draws the sample: which half of the Landsat vectors
// lands on which side, which half of each road-point pool is kept, where the
// DNA strings start and where homologies are planted. Joins over two samples
// of one structure do comparable work, so a timing's spread across seeds is
// the harness's noise and not the generator's.
const (
	landsatShape = 3
	roadShapeA   = 1
	roadShapeB   = 2
	dnaShapeH    = 7
	dnaShapeM    = 8
)

// libSpec describes one library workload: how its inputs are drawn, the join
// options, and the fixed iteration counts of the end-to-end pass.
type libSpec struct {
	name, why string
	pageBytes int
	opt       pmjoin.Options // Epsilon is ε₀
	fileStore bool
	// setUps is how many full set-ups setup_s is the median of; cheap set-ups
	// repeat more often, so a 60 ms figure is not at the mercy of one stall.
	setUps int
	// Each of cold iterations runs one join under a fresh matrix-cache key
	// followed by warmPerCold joins repeating that key. At least three warm
	// joins per cold one keep the median of the whole stream (req_p50_s) well
	// inside the warm joins and its 90th percentile inside the cold ones.
	cold, warmPerCold int
	gen               func(seed int64, shrink int) *inputs
}

// inputs are a workload's generated raw data, before indexing.
type inputs struct {
	vecA, vecB     [][]float64 // vector workloads
	seqA, seqB     []byte      // string workloads
	window, stride int
}

func (in *inputs) isString() bool { return in.seqA != nil }

// userBytes is the raw payload size: 8 bytes a coordinate plus an 8-byte id
// per vector, one byte per base.
func (in *inputs) userBytes() float64 {
	if in.isString() {
		return float64(len(in.seqA) + len(in.seqB))
	}
	return float64((len(in.vecA) + len(in.vecB)) * (8*len(in.vecA[0]) + 8))
}

var librarySpecs = []*libSpec{
	{
		name:      "landsat_sim",
		why:       "60-d vectors: the cold join is mostly predmat, the warm join splits between cluster.Square and fetch/block-build/kernel; where predmat, clustering, kernel and buffer work shows",
		pageBytes: 4096,
		opt:       pmjoin.Options{Method: pmjoin.SC, Epsilon: 0.0155736, BufferPages: 100},
		setUps:    3,
		cold:      7, warmPerCold: 3,
		gen: genLandsat,
	},
	{
		name:      "landsat_file",
		why:       "the same join with every buffer miss a real store read + CRC + decode; internal/store works here and in no other workload, so file-path gains show here only",
		pageBytes: 4096,
		opt:       pmjoin.Options{Method: pmjoin.SC, Epsilon: 0.0155736, BufferPages: 100, Storage: pmjoin.StorageFile},
		fileStore: true,
		setUps:    3,
		cold:      4, warmPerCold: 4,
		gen: genLandsat,
	},
	{
		name:      "dna_edit",
		why:       "CPU-bound edit distance on the non-batchable per-pair path with almost no I/O: kernel, store and buffer changes must show no change here, worker-pool scaling shows here first",
		pageBytes: 4096,
		opt:       pmjoin.Options{Method: pmjoin.SC, Epsilon: 5, BufferPages: 100},
		setUps:    9,
		cold:      8, warmPerCold: 3,
		gen: genDNA,
	},
	{
		name:      "spatial_cc",
		why:       "2-d, result-heavy CC join collecting ~2 M pairs: emission, merge and CC clustering dominate, predmat and kernel are negligible, so only emission/clustering/scheduling gains show",
		pageBytes: 1024,
		opt:       pmjoin.Options{Method: pmjoin.CC, Epsilon: 0.0090860, BufferPages: 320, CollectPairs: true, MaxPairs: 1 << 30},
		setUps:    5,
		cold:      12, warmPerCold: 3,
		gen: genSpatial,
	},
}

const serveWhy = "closed loop, 2 clients on the in-process join service (SC/CC/sharded joins + explains): the only workload with admission, plan cache, shared frame pool and two joins sharing two cores"

func librarySpec(name string) *libSpec {
	for _, s := range librarySpecs {
		if s.name == name {
			return s
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, s := range librarySpecs {
		names = append(names, s.name)
	}
	return append(names, serveMix)
}

// subSeed derives the k-th independent stream of a run's seed.
func subSeed(seed int64, k int64) int64 { return seed*64 + k }

// genLandsat draws the Landsat substitute (68 866 60-d vectors), splits it by
// the seed into two 34 433-vector sides, and overwrites one B vector in 200
// with a seed-chosen A vector plus noise below ε₀/32, so the join has results.
func genLandsat(seed int64, shrink int) *inputs {
	const dim, eps0 = 60, 0.0155736
	all := dataset.Landsat(68866/shrink, dim, landsatShape)
	parts := dataset.SplitEqual(all, 2, subSeed(seed, 0))
	a, b := parts[0], parts[1]
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	amp := eps0 / 32 / math.Sqrt(dim)
	for j := 0; j < len(b); j += 200 {
		src := a[rng.Intn(len(a))]
		v := make(geom.Vector, dim)
		for d := range v {
			v[d] = src[d] + (2*rng.Float64()-1)*amp
		}
		b[j] = v
	}
	return &inputs{vecA: dataset.ToFloats(a), vecB: dataset.ToFloats(b)}
}

// genSpatial keeps a seed-chosen half of two road-intersection pools, giving
// the 2× LBeach / 2× MCounty substitute pair (106 290 × 78 462 points).
func genSpatial(seed int64, shrink int) *inputs {
	return &inputs{
		vecA: sampleRoads(2*dataset.LBeachSize/shrink, roadShapeA, subSeed(seed, 0)),
		vecB: sampleRoads(2*dataset.MCountySize/shrink, roadShapeB, subSeed(seed, 1)),
	}
}

func sampleRoads(n int, shape, seed int64) [][]float64 {
	pool := dataset.RoadIntersections(2*n, shape)
	return dataset.ToFloats(dataset.SplitEqual(pool, 2, seed)[0])
}

// genDNA cuts the 0.25× HChr18 / MChr18 substitutes out of two fixed-shape
// sequences at seed-chosen offsets and plants seed-placed homologies aligned
// to the window stride (window 500, stride 32: 32 996 × 18 063 windows).
func genDNA(seed int64, shrink int) *inputs {
	const window, stride, pad = 500, 32, 4096
	hn, mn := dataset.HChr18Size/4/shrink, dataset.MChr18Size/4/shrink
	rng := rand.New(rand.NewSource(subSeed(seed, 0)))
	offH, offM := rng.Intn(pad), rng.Intn(pad)
	h := dataset.DNA(hn+pad, dnaShapeH)[offH : offH+hn]
	m := dataset.DNA(mn+pad, dnaShapeM)[offM : offM+mn]
	dataset.PlantHomologiesAligned(m, h, hn/20000+4, 4*window, 0.004, stride, subSeed(seed, 1))
	return &inputs{seqA: h, seqB: m, window: window, stride: stride}
}

// fixture is one indexed (and optionally store-backed) copy of a workload's
// inputs, with the set-up phases' wall times.
type fixture struct {
	in       *inputs
	sys      *pmjoin.System
	a, b     *pmjoin.Dataset
	storeDir string

	genS, indexS, attachS float64
}

func (f *fixture) setupS() float64 { return f.genS + f.indexS + f.attachS }

// close releases the fixture's file store, if any.
func (f *fixture) close() error {
	if f.storeDir == "" {
		return nil
	}
	err := f.sys.CloseStore()
	if rmErr := os.RemoveAll(f.storeDir); err == nil {
		err = rmErr
	}
	return err
}

// setUp generates, indexes and (for the file workload) attaches a store: the
// whole path from a seed to a joinable System.
func setUp(cfg config, spec *libSpec) (*fixture, error) {
	f := &fixture{}
	start := time.Now()
	f.in = spec.gen(cfg.seed, cfg.shrink)
	f.genS = time.Since(start).Seconds()

	start = time.Now()
	f.sys = pmjoin.NewSystem(pmjoin.DiskModel{
		SeekSeconds: seekSeconds, TransferSeconds: transferSeconds, PageBytes: spec.pageBytes,
	})
	var err error
	if f.in.isString() {
		so := pmjoin.StringOptions{Window: f.in.window, Stride: f.in.stride}
		if f.a, err = f.sys.AddString("R", f.in.seqA, so); err == nil {
			f.b, err = f.sys.AddString("S", f.in.seqB, so)
		}
	} else {
		vo := pmjoin.VectorOptions{PageBytes: spec.pageBytes}
		if f.a, err = f.sys.AddVectors("R", f.in.vecA, vo); err == nil {
			f.b, err = f.sys.AddVectors("S", f.in.vecB, vo)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: indexing: %w", spec.name, err)
	}
	f.indexS = time.Since(start).Seconds()

	if spec.fileStore {
		start = time.Now()
		dir, err := os.MkdirTemp(cfg.outDir, "store-")
		if err != nil {
			return nil, err
		}
		f.storeDir = dir
		if err := f.sys.UseFileStore(dir); err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("%s: attaching store: %w", spec.name, err)
		}
		f.attachS = time.Since(start).Seconds()
	}
	return f, nil
}

// setUpMedian sets up reps times and keeps the last fixture; setup_s is the
// median, so one slow set-up does not read as a regression.
func setUpMedian(cfg config, spec *libSpec, reps int) (*fixture, float64, error) {
	var keep *fixture
	var samples []float64
	for i := 0; i < reps; i++ {
		if keep != nil {
			if err := keep.close(); err != nil {
				return nil, 0, err
			}
			keep = nil // let the previous copy go before building the next
		}
		f, err := setUp(cfg, spec)
		if err != nil {
			return nil, 0, err
		}
		keep = f
		samples = append(samples, f.setupS())
	}
	return keep, median(samples), nil
}

// storeBytes sums the sizes of the store's files.
func storeBytes(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return float64(total), nil
}

// epsK is the k-th float above eps0: a fresh matrix-cache key that leaves
// every exact counter where ε₀ put it (asserted per iteration).
func epsK(eps0 float64, k int) float64 {
	for ; k > 0; k-- {
		eps0 = math.Nextafter(eps0, math.Inf(1))
	}
	return eps0
}
