// Command pmjoin runs ad-hoc similarity joins on synthetic workloads over
// the simulated disk and prints the cost report.
//
// Examples:
//
//	pmjoin -kind vector -n 20000 -n2 15000 -dim 2 -method SC -eps 0.02 -buffer 50
//	pmjoin -kind vector -n 10000 -dim 60 -data landsat -method EGO -calibrate 0.01 -buffer 200
//	pmjoin -kind string -n 500000 -window 500 -stride 32 -eps 5 -method SC -buffer 100
//	pmjoin -kind series -n 100000 -window 32 -stride 4 -eps 2.5 -method CC -buffer 64
//	pmjoin -kind vector -n 20000 -dim 2 -save roads.pmj -eps 0.02 -buffer 50
//	pmjoin -load roads.pmj -eps 0.02 -buffer 50 -storage file -storedir /tmp/pmstore
//
// Omitting -n2 makes the join a self join. -save writes the first dataset's
// raw data to a container file and -load reads one back (the kind is
// inferred); -storage file serves page payloads from real encoded files and
// reports measured read latencies, with results identical to the simulator.
//
// All methods: NLJ, pm-NLJ (PMNLJ), random-SC, SC, CC, EGO, BFRJ.
package main

import (
	"flag"
	"fmt"
	"os"

	"pmjoin"
	"pmjoin/internal/dataset"
	"pmjoin/internal/disk"
	"pmjoin/internal/store"
)

func main() {
	var (
		kind    = pmjoin.KindVector
		m       = pmjoin.SC
		policy  = pmjoin.LRU
		storage = pmjoin.StorageSim
	)
	flag.TextVar(&kind, "kind", kind, "data kind: vector, series, string")
	flag.TextVar(&m, "method", m, "join method: NLJ, pm-NLJ, random-SC, SC, CC, EGO, BFRJ")
	flag.TextVar(&policy, "policy", policy, "buffer replacement policy: LRU, FIFO")
	flag.TextVar(&storage, "storage", storage, "physical page source: sim, file (identical results; file serves real encoded files and measures read latencies)")
	var (
		data      = flag.String("data", "", "vector generator: roads (default for dim 2) or landsat (default otherwise)")
		n         = flag.Int("n", 10000, "size of the first dataset (vectors / samples / bases)")
		n2        = flag.Int("n2", 0, "size of the second dataset (0: self join)")
		dim       = flag.Int("dim", 2, "vector dimensionality")
		window    = flag.Int("window", 32, "subsequence length for sequence kinds")
		stride    = flag.Int("stride", 4, "window stride for sequence kinds")
		eps       = flag.Float64("eps", 0, "distance threshold (edit distance for strings)")
		calibrate = flag.Float64("calibrate", 0, "calibrate eps to this prediction-matrix density instead of -eps")
		buffer    = flag.Int("buffer", 100, "buffer size in pages")
		pageBytes = flag.Int("page", 4096, "page size in bytes")
		seed      = flag.Int64("seed", 1, "workload seed")
		pairs     = flag.Int("pairs", 0, "print up to this many result pairs")
		parallel  = flag.Int("parallel", 0, "comparison workers (0: GOMAXPROCS, 1: serial)")
		shards    = flag.Int("shards", 0, "cut the clustered join into this many shards (0: unsharded)")
		shardWork = flag.Int("shard-workers", 0, "parallel shard workers (0: min(shards, GOMAXPROCS))")
		metrics   = flag.Bool("metrics", false, "print the phase-scoped metrics snapshot")
		trace     = flag.Int("trace", 0, "record the trace and print its newest N events (implies -metrics)")
		loadPath  = flag.String("load", "", "load the first dataset from a container file written by -save (kind inferred; overrides -kind/-n)")
		savePath  = flag.String("save", "", "save the first dataset's raw data to this container file (the join still runs)")
		storeDir  = flag.String("storedir", "", "directory for the file-backed page store with -storage file (default: a temp dir, removed on exit)")
	)
	flag.Parse()

	// Raw data of the first dataset: loaded from a container file or
	// generated, optionally saved back out, then indexed.
	var rawA store.Data
	var err error
	if *loadPath != "" {
		rawA, err = store.LoadData(*loadPath)
		if err != nil {
			fatal(err)
		}
		switch rawA.Kind {
		case disk.Vectors:
			kind = pmjoin.KindVector
		case disk.Series:
			kind = pmjoin.KindSeries
		case disk.Strings:
			kind = pmjoin.KindString
		}
	}

	sys := pmjoin.NewSystem(pmjoin.DiskModel{PageBytes: *pageBytes})
	var da, db *pmjoin.Dataset
	switch kind {
	case pmjoin.KindVector:
		da, db, rawA, err = buildVectors(sys, *data, rawA.Vectors, *n, *n2, *dim, *seed)
	case pmjoin.KindSeries:
		da, db, rawA, err = buildSeries(sys, rawA.Series, *n, *n2, *window, *stride, *seed)
	case pmjoin.KindString:
		da, db, rawA, err = buildStrings(sys, rawA.String, *n, *n2, *window, *stride, *seed)
	}
	if err != nil {
		fatal(err)
	}
	if *savePath != "" {
		if err := store.SaveData(*savePath, rawA); err != nil {
			fatal(err)
		}
		fmt.Printf("saved %s to %s\n", da.Name(), *savePath)
	}

	if storage == pmjoin.StorageFile {
		dir := *storeDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "pmjoin-store-*")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(dir)
		}
		if err := sys.UseFileStore(dir); err != nil {
			fatal(err)
		}
		defer sys.CloseStore()
		fmt.Printf("file store: %s\n", dir)
	}
	fmt.Printf("datasets: %s (%d objects, %d pages) x %s (%d objects, %d pages)\n",
		da.Name(), da.Objects(), da.Pages(), db.Name(), db.Objects(), db.Pages())

	epsilon := *eps
	if *calibrate > 0 {
		epsilon, err = sys.CalibrateEpsilon(da, db, *calibrate)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("calibrated eps = %g (target density %g)\n", epsilon, *calibrate)
	}
	if epsilon <= 0 {
		fatal(fmt.Errorf("provide -eps or -calibrate"))
	}

	opt := pmjoin.Options{
		Method:       m,
		Epsilon:      epsilon,
		BufferPages:  *buffer,
		Policy:       policy,
		Parallelism:  *parallel,
		Seed:         *seed,
		CollectPairs: *pairs > 0,
		MaxPairs:     *pairs,
		Trace:        *trace > 0,
		Storage:      storage,
		Sharding:     pmjoin.ShardingOptions{Shards: *shards, Workers: *shardWork},
	}
	res, err := sys.Join(da, db, opt)
	if err != nil {
		fatal(err)
	}
	r := res.Report
	fmt.Printf("\n%s join, eps=%g, buffer=%d pages\n", m, epsilon, *buffer)
	fmt.Printf("  results:        %d pairs\n", res.Count())
	fmt.Printf("  total cost:     %.3f sim-s\n", res.TotalSeconds())
	fmt.Printf("    I/O:          %.3f sim-s (%d reads, %d seeks)\n", r.IOSeconds, r.PageReads, r.Seeks)
	fmt.Printf("    CPU-join:     %.3f sim-s (%d comparisons)\n", r.CPUJoinSeconds, r.Comparisons)
	fmt.Printf("    preprocess:   %.3f sim-s (%d clusters)\n", r.PreprocessSeconds, r.Clusters)
	if res.MarkedEntries > 0 {
		fmt.Printf("  matrix:         %d marked entries (density %.4f), built in %.4f sim-s\n",
			res.MarkedEntries, res.MatrixDensity, res.MatrixSeconds)
	}
	fmt.Printf("  buffer:         %d hits / %d misses\n", r.Hits, r.Misses)
	if res.Exec.Shards > 0 {
		fmt.Printf("  sharding:       %d shards on %d workers\n", res.Exec.Shards, res.Exec.ShardWorkers)
	}
	if res.Exec.MeasuredReads > 0 {
		fmt.Printf("  measured I/O:   %d file reads, %.3f s summed wall\n",
			res.Exec.MeasuredReads, res.Exec.MeasuredIOWall)
	}
	for i, p := range res.Pairs {
		fmt.Printf("  pair %d: (%d, %d)\n", i, p[0], p[1])
	}
	if res.Truncated {
		fmt.Printf("  ... more pairs not shown\n")
	}
	if *metrics || *trace > 0 {
		printMetrics(res.Metrics, *trace)
		if m == pmjoin.SC {
			// Explain's greedy schedule is the one an SC run executes, so its
			// per-cluster prediction lines up with the measured turnover.
			plan, err := sys.Explain(da, db, opt)
			if err != nil {
				fatal(err)
			}
			printPredictedVsMeasured(plan, res.Metrics)
		}
	}
}

// The builders take the first dataset's raw data when it was loaded from a
// container file (nil = generate it) and return the raw actually indexed, so
// -save can write exactly what joined.

func buildVectors(sys *pmjoin.System, data string, raw [][]float64, n, n2, dim int, seed int64) (*pmjoin.Dataset, *pmjoin.Dataset, store.Data, error) {
	gen := func(n int, seed int64) [][]float64 {
		if data == "roads" || (data == "" && dim == 2) {
			return dataset.ToFloats(dataset.RoadIntersections(n, seed))
		}
		return dataset.ToFloats(dataset.Landsat(n, dim, seed))
	}
	if raw == nil {
		raw = gen(n, seed)
	} else if len(raw) > 0 {
		dim = len(raw[0])
	}
	da, err := sys.AddVectors("A", raw, pmjoin.VectorOptions{})
	if err != nil {
		return nil, nil, store.Data{}, err
	}
	if n2 == 0 {
		return da, da, store.Data{Kind: disk.Vectors, Vectors: raw}, nil
	}
	db, err := sys.AddVectors("B", gen(n2, seed+1), pmjoin.VectorOptions{})
	if err != nil {
		return nil, nil, store.Data{}, err
	}
	return da, db, store.Data{Kind: disk.Vectors, Vectors: raw}, nil
}

func buildSeries(sys *pmjoin.System, raw []float64, n, n2, window, stride int, seed int64) (*pmjoin.Dataset, *pmjoin.Dataset, store.Data, error) {
	if raw == nil {
		raw = dataset.RandomWalk(n, seed)
	}
	da, err := sys.AddSeries("A", raw, pmjoin.SeriesOptions{Window: window, Stride: stride})
	if err != nil {
		return nil, nil, store.Data{}, err
	}
	if n2 == 0 {
		return da, da, store.Data{Kind: disk.Series, Series: raw}, nil
	}
	db, err := sys.AddSeries("B", dataset.RandomWalk(n2, seed+1), pmjoin.SeriesOptions{Window: window, Stride: stride})
	if err != nil {
		return nil, nil, store.Data{}, err
	}
	return da, db, store.Data{Kind: disk.Series, Series: raw}, nil
}

func buildStrings(sys *pmjoin.System, a []byte, n, n2, window, stride int, seed int64) (*pmjoin.Dataset, *pmjoin.Dataset, store.Data, error) {
	if a == nil {
		a = dataset.DNA(n, seed)
		if n2 == 0 {
			// Loaded data keeps whatever homologies it was saved with;
			// generated data gets them planted fresh.
			dataset.PlantHomologiesAligned(a, a, n/20000+4, 4*window, 0.004, stride, seed+2)
		}
	}
	if n2 == 0 {
		da, err := sys.AddString("A", a, pmjoin.StringOptions{Window: window, Stride: stride})
		if err != nil {
			return nil, nil, store.Data{}, err
		}
		return da, da, store.Data{Kind: disk.Strings, String: a}, nil
	}
	b := dataset.DNA(n2, seed+1)
	dataset.PlantHomologiesAligned(b, a, n/20000+4, 4*window, 0.004, stride, seed+2)
	da, err := sys.AddString("A", a, pmjoin.StringOptions{Window: window, Stride: stride})
	if err != nil {
		return nil, nil, store.Data{}, err
	}
	db, err := sys.AddString("B", b, pmjoin.StringOptions{Window: window, Stride: stride})
	if err != nil {
		return nil, nil, store.Data{}, err
	}
	return da, db, store.Data{Kind: disk.Strings, String: a}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmjoin:", err)
	os.Exit(1)
}
