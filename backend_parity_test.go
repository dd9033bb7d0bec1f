package pmjoin

import (
	"context"
	"io/fs"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"pmjoin/internal/dataset"
	"pmjoin/internal/disk"
)

// TestBackendParity is the storage half of the determinism contract: with a
// file store attached, a join run with Options.Storage = StorageFile — real
// encoded page files, mmap reads — must produce a Report, Pairs and Plan
// bit-identical to the simulator run, unsharded and sharded. ExecStats is not
// compared with the simulator run: its measured fields observe the physical
// reads. MeasuredIOWall is wall time and may differ; MeasuredReads counts the
// buffer misses, so the file run cache-cold after DropStoreCaches must repeat
// it.
func TestBackendParity(t *testing.T) {
	type workload struct {
		name  string
		build func(t *testing.T) (*System, *Dataset, *Dataset)
		opt   Options
	}
	loads := []workload{
		{
			// Tight buffer so the schedule has many clusters with real
			// turnover between them.
			name: "vector",
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 256})
				da, err := sys.AddVectors("a", randomVecs(400, 2, 51), VectorOptions{})
				if err != nil {
					t.Fatal(err)
				}
				db, err := sys.AddVectors("b", randomVecs(300, 2, 52), VectorOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return sys, da, db
			},
			opt: Options{Method: SC, Epsilon: 0.05, BufferPages: 12, CollectPairs: true},
		},
		{
			// Self join over series pages: exercises the series page codec and
			// the shared-file dedup through the store.
			name: "series-self",
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 1024})
				ds, err := sys.AddSeries("walk", dataset.RandomWalk(2000, 53), SeriesOptions{Window: 32, Stride: 4})
				if err != nil {
					t.Fatal(err)
				}
				return sys, ds, ds
			},
			opt: Options{Method: CC, Epsilon: 8.0, BufferPages: 16, CollectPairs: true},
		},
		{
			// String pages through the store (frequency vectors + window bytes).
			name: "string-self",
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 512})
				ds, err := sys.AddString("dna", dataset.DNA(3000, 54), StringOptions{Window: 24, Stride: 6})
				if err != nil {
					t.Fatal(err)
				}
				return sys, ds, ds
			},
			opt: Options{Method: SC, Epsilon: 2, BufferPages: 12, CollectPairs: true},
		},
	}

	for _, wl := range loads {
		t.Run(wl.name, func(t *testing.T) {
			sys, da, db := wl.build(t)
			if err := sys.UseFileStore(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			defer sys.CloseStore()

			for _, shards := range []int{0, 3} {
				join := func(storage StorageMode) *Result {
					o := wl.opt
					o.Storage = storage
					if shards > 0 {
						o.Sharding = ShardingOptions{Shards: shards}
					}
					res, err := sys.Join(da, db, o)
					if err != nil {
						t.Fatalf("shards=%d %s: %v", shards, storage, err)
					}
					return res
				}
				sim := join(StorageSim)
				if sim.Exec.MeasuredReads != 0 || sim.Exec.MeasuredIOWall != 0 {
					t.Errorf("shards=%d: simulator reported measured reads (reads=%d wall=%g)",
						shards, sim.Exec.MeasuredReads, sim.Exec.MeasuredIOWall)
				}
				file := join(StorageFile)
				if file.Exec.MeasuredReads == 0 || file.Exec.MeasuredIOWall <= 0 {
					t.Errorf("shards=%d: no measured physical reads (reads=%d wall=%g)",
						shards, file.Exec.MeasuredReads, file.Exec.MeasuredIOWall)
				}
				// With the OS page cache dropped the store reads cold. Every
				// buffer miss is one backend fetch, so the physical read count
				// is fixed by the schedule and does not move.
				if err := sys.DropStoreCaches(); err != nil {
					t.Fatal(err)
				}
				cold := join(StorageFile)
				if cold.Exec.MeasuredReads != file.Exec.MeasuredReads {
					t.Errorf("shards=%d: cold file run measured %d reads, the warm one %d",
						shards, cold.Exec.MeasuredReads, file.Exec.MeasuredReads)
				}
				for _, r := range []struct {
					name string
					res  *Result
				}{{"file", file}, {"cold file", cold}} {
					if !reflect.DeepEqual(r.res.Report, sim.Report) {
						t.Errorf("shards=%d: Report differs between sim and %s:\n%+v\n%+v",
							shards, r.name, sim.Report, r.res.Report)
					}
					if !reflect.DeepEqual(r.res.Pairs, sim.Pairs) || r.res.Truncated != sim.Truncated {
						t.Errorf("shards=%d: Pairs differ between sim and %s", shards, r.name)
					}
				}
			}

			// Plan parity: Explain is storage-blind by construction.
			po := wl.opt
			po.Storage = StorageSim
			p1, err := sys.Explain(da, db, po)
			if err != nil {
				t.Fatal(err)
			}
			po.Storage = StorageFile
			p2, err := sys.Explain(da, db, po)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p1, p2) {
				t.Errorf("Plan differs between storage modes:\n%+v\n%+v", p1, p2)
			}
		})
	}
}

// TestFileStoreLifecycle pins the attachment errors: StorageFile without a
// store fails with a clear message, double attachment fails, and a dataset
// added AFTER attachment is served from the store via the write mirror. It
// also pins the lifetime of fetched pages: they view the store's mapping, so
// a join on a store attached after CloseStore reads none of the first
// store's closed mappings.
func TestFileStoreLifecycle(t *testing.T) {
	sys := NewSystem(DiskModel{PageBytes: 256})
	da, err := sys.AddVectors("a", randomVecs(120, 2, 55), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Method: SC, Epsilon: 0.05, BufferPages: 8, Storage: StorageFile, CollectPairs: true}
	if _, err := sys.Join(da, da, opt); err == nil {
		t.Fatal("StorageFile without an attached store did not fail")
	}
	if err := sys.UseFileStore(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := sys.UseFileStore(t.TempDir()); err == nil {
		t.Fatal("double UseFileStore did not fail")
	}
	// Mirrored post-attachment dataset: pages reach the store as they are
	// appended, so a file-backed join over it measures real reads.
	db, err := sys.AddVectors("b", randomVecs(100, 2, 56), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec.MeasuredReads == 0 || len(res.Pairs) == 0 {
		t.Errorf("mirrored dataset produced %d measured reads and %d pairs, want some of each", res.Exec.MeasuredReads, len(res.Pairs))
	}
	// Fetched pages view the store's mapping. Dropping the OS caches between
	// two joins makes the second fault its views back in from the file.
	if err := sys.DropStoreCaches(); err != nil {
		t.Fatal(err)
	}
	cold, err := sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CloseStore(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Join(da, db, opt); err == nil {
		t.Fatal("StorageFile after CloseStore did not fail")
	}
	if err := sys.CloseStore(); err != nil {
		t.Fatal("second CloseStore must be a no-op")
	}
	// A fresh store on a fresh directory serves the same join again: nothing
	// of the first store's closed mappings is read.
	if err := sys.UseFileStore(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer sys.CloseStore()
	again, err := sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		got, first *Result
	}{{"cold", cold, res}, {"reattached", again, res}} {
		if !reflect.DeepEqual(c.got.Report, c.first.Report) || !reflect.DeepEqual(c.got.Pairs, c.first.Pairs) {
			t.Errorf("%s join differs from the first: %+v vs %+v", c.name, c.got.Report, c.first.Report)
		}
		if c.got.Exec.MeasuredReads != c.first.Exec.MeasuredReads {
			t.Errorf("%s join measured %d reads, the first %d", c.name, c.got.Exec.MeasuredReads, c.first.Exec.MeasuredReads)
		}
	}
}

// TestCloseStoreWaitsForFileJoins pins the store lease: the block kernel
// reads a file-backed join's pages in place, as views of the store's
// mappings, so CloseStore called while such joins run must wait for them
// rather than unmap the pages under their workers. Every join racing the
// close returns either the simulator's Report and Pairs or a clean error,
// CloseStore returns, and a StorageFile join after it fails.
func TestCloseStoreWaitsForFileJoins(t *testing.T) {
	sys := NewSystem(DiskModel{PageBytes: 1024})
	da, err := sys.AddVectors("a", randomVecs(1500, 8, 57), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sys.AddVectors("b", randomVecs(1500, 8, 58), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Method: SC, Epsilon: 0.3, BufferPages: 24, Parallelism: 2, CollectPairs: true}
	sim, err := sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Pairs) == 0 {
		t.Fatal("the simulator join found no pairs; the checks below would be vacuous")
	}
	if err := sys.UseFileStore(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	opt.Storage = StorageFile

	const joiners, rounds = 3, 4
	var wg sync.WaitGroup
	first := make(chan struct{}, joiners*rounds)
	var mu sync.Mutex
	served, failed := 0, 0
	for range joiners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				res, err := sys.Join(da, db, opt)
				mu.Lock()
				switch {
				case err != nil:
					failed++
				case !reflect.DeepEqual(res.Report, sim.Report) || !reflect.DeepEqual(res.Pairs, sim.Pairs):
					t.Errorf("a file join racing CloseStore differs from the simulator: %+v vs %+v", res.Report, sim.Report)
				default:
					served++
				}
				mu.Unlock()
				first <- struct{}{}
			}
		}()
	}
	<-first // one join is done; the others are running
	if err := sys.CloseStore(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if served == 0 || failed == 0 {
		t.Logf("%d joins served, %d failed: the close did not land mid-run this time", served, failed)
	}
	if _, err := sys.Join(da, db, opt); err == nil {
		t.Fatal("StorageFile after CloseStore did not fail")
	}
}

// TestMeasuredIOIsMetrics holds ExecStats' measured I/O to the metrics
// snapshot, its one source: for every method, clustered ones unsharded and
// sharded, under the simulator and the file store, Exec.MeasuredReads and
// Exec.MeasuredIOWall equal Metrics.Measured, read 0 under the simulator, and
// on a file-backed clustered run add up over Metrics.Clusters.
func TestMeasuredIOIsMetrics(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	if err := sys.UseFileStore(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer sys.CloseStore()
	for _, m := range allMethods {
		clustered := m == RandomSC || m == SC || m == CC
		shardCounts := []int{0}
		if clustered {
			shardCounts = []int{0, 2}
		}
		for _, shards := range shardCounts {
			for _, storage := range []StorageMode{StorageSim, StorageFile} {
				opt := Options{Method: m, Epsilon: 0.05, BufferPages: 8, Storage: storage,
					Sharding: ShardingOptions{Shards: shards}}
				res, err := sys.Join(da, db, opt)
				if err != nil {
					t.Fatalf("%v shards=%d %v: %v", m, shards, storage, err)
				}
				got, want := res.Exec, res.Metrics.Measured
				if got.MeasuredReads != want.Reads || got.MeasuredIOWall != want.Seconds {
					t.Errorf("%v shards=%d %v: Exec measured %d reads, %g s; Metrics.Measured %+v",
						m, shards, storage, got.MeasuredReads, got.MeasuredIOWall, want)
				}
				if storage == StorageSim && (got.MeasuredReads != 0 || got.MeasuredIOWall != 0) {
					t.Errorf("%v shards=%d: simulator measured %d reads, %g s",
						m, shards, got.MeasuredReads, got.MeasuredIOWall)
				}
				if storage == StorageFile && got.MeasuredReads == 0 {
					t.Errorf("%v shards=%d: file store measured no reads", m, shards)
				}
				if storage == StorageFile && clustered {
					var sum int64
					for _, cs := range res.Metrics.Clusters {
						sum += cs.Measured.Reads
					}
					if sum != got.MeasuredReads {
						t.Errorf("%v shards=%d: clusters measured %d reads, the run %d",
							m, shards, sum, got.MeasuredReads)
					}
				}
			}
		}
	}
}

// TestRunFilesStayInSession pins where run files live: EGO's grid-ordered
// copy and BFRJ's node and spill files are the run's disk session's own, so
// repeated joins — through System.Join and Server.Join, two at a time too —
// leave the catalog's files and pages and the attached store's bytes as
// ingest left them, and every repeat reports the same Report and Pairs.
func TestRunFilesStayInSession(t *testing.T) {
	type workload struct {
		name  string
		build func(t *testing.T, sys *System) (*Dataset, *Dataset)
		eps   float64
	}
	must := func(t *testing.T, d *Dataset, err error) *Dataset {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	loads := []workload{
		{"vector", func(t *testing.T, sys *System) (*Dataset, *Dataset) {
			a, err := sys.AddVectors("a", randomVecs(400, 4, 61), VectorOptions{})
			b, err2 := sys.AddVectors("b", randomVecs(300, 4, 62), VectorOptions{})
			return must(t, a, err), must(t, b, err2)
		}, 0.15},
		{"series", func(t *testing.T, sys *System) (*Dataset, *Dataset) {
			a, err := sys.AddSeries("a", dataset.RandomWalk(1200, 63), SeriesOptions{Window: 16, Stride: 2})
			b, err2 := sys.AddSeries("b", dataset.RandomWalk(900, 64), SeriesOptions{Window: 16, Stride: 2})
			return must(t, a, err), must(t, b, err2)
		}, 6},
		{"string", func(t *testing.T, sys *System) (*Dataset, *Dataset) {
			a, err := sys.AddString("a", dataset.DNA(800, 65), StringOptions{Window: 16, Stride: 2})
			b, err2 := sys.AddString("b", dataset.DNA(600, 65), StringOptions{Window: 16, Stride: 2})
			return must(t, a, err), must(t, b, err2)
		}, 2},
	}
	// footprint is what joins must not grow: the catalog's files and pages
	// and the store directory's bytes.
	type footprint struct{ files, pages, bytes int64 }
	measure := func(t *testing.T, sys *System, dir string) footprint {
		t.Helper()
		var fp footprint
		seen := make(map[int]bool)
		if err := sys.d.EachPage(func(pg *disk.Page) error {
			if !seen[int(pg.Addr.File)] {
				seen[int(pg.Addr.File)] = true
				fp.files++
			}
			fp.pages++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			info, err := e.Info()
			fp.bytes += info.Size()
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return fp
	}
	for _, wl := range loads {
		t.Run(wl.name, func(t *testing.T) {
			sys := NewSystem(DiskModel{PageBytes: 512})
			a, b := wl.build(t, sys)
			dir := t.TempDir()
			if err := sys.UseFileStore(dir); err != nil {
				t.Fatal(err)
			}
			defer sys.CloseStore()
			srv, err := NewServer(sys, ServeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			before := measure(t, sys, dir)
			for _, m := range []Method{EGO, BFRJ} {
				for _, storage := range []StorageMode{StorageSim, StorageFile} {
					opt := Options{Method: m, Epsilon: wl.eps, BufferPages: 6, Storage: storage, CollectPairs: true}
					join := func(served bool) *Result {
						var res *Result
						var err error
						if served {
							res, err = srv.Join(context.Background(), a, b, opt)
						} else {
							res, err = sys.Join(a, b, opt)
						}
						if err != nil {
							t.Errorf("%v %v served=%v: %v", m, storage, served, err)
						}
						return res
					}
					first := join(false)
					if first == nil {
						continue
					}
					if first.Report.Results == 0 {
						t.Fatalf("%v %v found no pairs; the repeats would compare nothing", m, storage)
					}
					repeats := []*Result{join(true), join(false), join(true)}
					concurrent := make([]*Result, 2)
					var wg sync.WaitGroup
					for i := range concurrent {
						wg.Add(1)
						go func() {
							defer wg.Done()
							concurrent[i] = join(i == 1)
						}()
					}
					wg.Wait()
					for i, res := range append(repeats, concurrent...) {
						if res == nil {
							continue
						}
						if !reflect.DeepEqual(res.Report, first.Report) || !reflect.DeepEqual(res.Pairs, first.Pairs) {
							t.Errorf("%v %v repeat %d differs from the first run:\n%+v\n%+v", m, storage, i, res.Report, first.Report)
						}
					}
				}
			}
			if after := measure(t, sys, dir); after != before {
				t.Errorf("joins grew the catalog or the store: before %+v, after %+v", before, after)
			}
		})
	}
}
