package pmjoin

import (
	"reflect"
	"testing"

	"pmjoin/internal/dataset"
)

// TestPrefetchDeterminism is the pipeline half of the determinism contract:
// for every clustered method, a join with Prefetch on produces a Result
// (Report, Pairs, matrix stats) and a Plan bit-for-bit identical to the run
// with Prefetch off, at Parallelism 1 and at GOMAXPROCS. Beyond the Result,
// the disk counters themselves must not move: prefetched reads are the same
// reads the pin loop would have issued, in the same order, so Seeks,
// Sequential and GapPages agree exactly, and the buffer counters agree
// except for the Prefetched tally. Each mode runs on a fresh System over
// identical generated data.
func TestPrefetchDeterminism(t *testing.T) {
	type workload struct {
		name    string
		methods []Method
		build   func(t *testing.T) (*System, *Dataset, *Dataset)
		opt     Options
		// full marks the landsat shape: clusters fill at least 90 % of the
		// buffer, so staging succeeds only for part of each step.
		full bool
	}
	loads := []workload{
		{
			name:    "vector-full-clusters",
			methods: []Method{SC},
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 256})
				da, err := sys.AddVectors("a", randomVecs(400, 8, 61), VectorOptions{})
				if err != nil {
					t.Fatal(err)
				}
				db, err := sys.AddVectors("b", randomVecs(300, 8, 62), VectorOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return sys, da, db
			},
			opt:  Options{Epsilon: 0.5, BufferPages: 20, CollectPairs: true},
			full: true,
		},
		{
			// Small buffer relative to the matrix so clustering yields many
			// clusters with real turnover at every boundary: the workload that
			// actually exercises staged admissions and degradation.
			name:    "vector-tight-buffer",
			methods: []Method{SC, RandomSC, CC},
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 256})
				da, err := sys.AddVectors("a", randomVecs(400, 2, 21), VectorOptions{})
				if err != nil {
					t.Fatal(err)
				}
				db, err := sys.AddVectors("b", randomVecs(300, 2, 22), VectorOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return sys, da, db
			},
			opt: Options{Epsilon: 0.05, BufferPages: 12, CollectPairs: true},
		},
		{
			name:    "series-self",
			methods: []Method{SC, RandomSC, CC},
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 1024})
				ds, err := sys.AddSeries("walk", dataset.RandomWalk(2500, 23), SeriesOptions{Window: 32, Stride: 4})
				if err != nil {
					t.Fatal(err)
				}
				return sys, ds, ds
			},
			opt: Options{Epsilon: 8.0, BufferPages: 16, CollectPairs: true},
		},
		{
			name:    "string",
			methods: []Method{SC},
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 512})
				sa := dataset.DNA(2000, 24)
				sb := dataset.DNA(1500, 25)
				dataset.PlantHomologies(sb, sa, 5, 80, 0.02, 26)
				da, err := sys.AddString("a", sa, StringOptions{Window: 64, Stride: 8})
				if err != nil {
					t.Fatal(err)
				}
				db, err := sys.AddString("b", sb, StringOptions{Window: 64, Stride: 8})
				if err != nil {
					t.Fatal(err)
				}
				return sys, da, db
			},
			opt: Options{Epsilon: 4, BufferPages: 16, CollectPairs: true},
		},
	}

	var stagedTotal int64
	for _, w := range loads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, m := range w.methods {
				m := m
				t.Run(m.String(), func(t *testing.T) {
					run := func(mode PrefetchMode, par int) (*Result, *Plan) {
						sys, a, b := w.build(t)
						opt := w.opt
						opt.Method = m
						opt.Pipeline.Prefetch = mode
						opt.Parallelism = par
						opt.Metrics = true // outside the contract, used for counter checks
						res, err := sys.Join(a, b, opt)
						if err != nil {
							t.Fatal(err)
						}
						// Explain without metrics so the Plan comparison is
						// over the deterministic fields only.
						opt.Metrics = false
						plan, err := sys.Explain(a, b, opt)
						if err != nil {
							t.Fatal(err)
						}
						return res, plan
					}
					for _, par := range []int{1, 0} { // 0 = GOMAXPROCS
						off, offPlan := run(PrefetchOff, par)
						on, onPlan := run(PrefetchOn, par)
						if got, want := deterministicFields(on), deterministicFields(off); !reflect.DeepEqual(got, want) {
							t.Errorf("parallelism %d: prefetch-on result differs:\n off: %+v\n on:  %+v", par, want, got)
						}
						if !reflect.DeepEqual(onPlan, offPlan) {
							t.Errorf("parallelism %d: prefetch-on plan differs:\n off: %+v\n on:  %+v", par, offPlan, onPlan)
						}
						// The stronger claim: the disk saw the identical access
						// sequence, so every counter matches — not just costs.
						if got, want := on.Metrics.Disk, off.Metrics.Disk; got != want {
							t.Errorf("parallelism %d: disk counters differ:\n off: %+v\n on:  %+v", par, want, got)
						}
						onBuf := on.Metrics.Buffer
						onBuf.Prefetched = 0 // the one counter allowed to differ
						if got, want := onBuf, off.Metrics.Buffer; got != want {
							t.Errorf("parallelism %d: buffer counters differ (beyond Prefetched):\n off: %+v\n on:  %+v", par, want, got)
						}
						if par == 1 && off.Count() == 0 {
							t.Error("workload has no results; the comparison is vacuous")
						}
						if w.full {
							pages := 0
							for _, c := range onPlan.ClusterIO {
								pages += c.Pages
							}
							if fill := float64(pages) / float64(len(onPlan.ClusterIO)*w.opt.BufferPages); fill < 0.9 {
								t.Errorf("clusters fill %.2f of the buffer, want >= 0.9", fill)
							}
							if on.Exec.PrefetchedPages == 0 || on.Exec.PrefetchedPages >= onPlan.PrefetchablePages {
								t.Errorf("staged %d of %d prefetchable pages, want some but not all",
									on.Exec.PrefetchedPages, onPlan.PrefetchablePages)
							}
						}
						stagedTotal += on.Exec.PrefetchedPages
					}
				})
			}
		})
	}
	// Vacuity check for the pipeline itself: at least one on-mode run must
	// actually have staged pages, or the whole test compared a no-op.
	if stagedTotal == 0 {
		t.Error("no run prefetched any pages; the on/off comparison is vacuous")
	}
}

// TestPrefetchDepthDeterminism pins the parity argument for the depth cap:
// bounding the staged run at any depth only moves the prefetch/pin boundary,
// so the Result and the disk counters stay identical to the unbounded run.
func TestPrefetchDepthDeterminism(t *testing.T) {
	build := func() (*System, *Dataset, *Dataset) {
		sys := NewSystem(DiskModel{PageBytes: 256})
		da, err := sys.AddVectors("a", randomVecs(400, 2, 21), VectorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		db, err := sys.AddVectors("b", randomVecs(300, 2, 22), VectorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return sys, da, db
	}
	run := func(depth int) *Result {
		sys, a, b := build()
		res, err := sys.Join(a, b, Options{
			Method: SC, Epsilon: 0.05, BufferPages: 12, CollectPairs: true,
			Pipeline: PipelineOptions{Prefetch: PrefetchOn, PrefetchDepth: depth}, Metrics: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unbounded := run(0)
	for _, depth := range []int{1, 3} {
		capped := run(depth)
		if got, want := deterministicFields(capped), deterministicFields(unbounded); !reflect.DeepEqual(got, want) {
			t.Errorf("depth %d: result differs from unbounded:\n unbounded: %+v\n capped:    %+v", depth, want, got)
		}
		if got, want := capped.Metrics.Disk, unbounded.Metrics.Disk; got != want {
			t.Errorf("depth %d: disk counters differ:\n unbounded: %+v\n capped:    %+v", depth, want, got)
		}
		if capped.Exec.PrefetchedPages > unbounded.Exec.PrefetchedPages {
			t.Errorf("depth %d staged %d pages, more than unbounded's %d",
				depth, capped.Exec.PrefetchedPages, unbounded.Exec.PrefetchedPages)
		}
	}
}

// TestPrefetchFIFOGates pins the policy gate: under FIFO the staged-frame
// parity argument does not hold, so the engine silently runs the demand path
// — identical results, zero pages prefetched.
func TestPrefetchFIFOGates(t *testing.T) {
	build := func() (*System, *Dataset, *Dataset) {
		sys := NewSystem(DiskModel{PageBytes: 256})
		da, err := sys.AddVectors("a", randomVecs(400, 2, 21), VectorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		db, err := sys.AddVectors("b", randomVecs(300, 2, 22), VectorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return sys, da, db
	}
	run := func(mode PrefetchMode) *Result {
		sys, a, b := build()
		res, err := sys.Join(a, b, Options{
			Method: SC, Epsilon: 0.05, BufferPages: 12, CollectPairs: true,
			Policy: FIFO, Pipeline: PipelineOptions{Prefetch: mode},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(PrefetchOff)
	on := run(PrefetchOn)
	if got, want := deterministicFields(on), deterministicFields(off); !reflect.DeepEqual(got, want) {
		t.Errorf("FIFO prefetch-on result differs:\n off: %+v\n on:  %+v", want, got)
	}
	if on.Exec.PrefetchedPages != 0 {
		t.Errorf("FIFO run staged %d pages; the gate should disable prefetch", on.Exec.PrefetchedPages)
	}
}

// TestPrefetchModeDefault pins the normalization: the zero value resolves to
// PrefetchOn, an explicit off stays off, and negative depths are rejected.
func TestPrefetchModeDefault(t *testing.T) {
	opt := Options{Method: NLJ, Epsilon: 1, BufferPages: 4}
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	if opt.Pipeline.Prefetch != PrefetchOn {
		t.Errorf("default prefetch = %v, want on", opt.Pipeline.Prefetch)
	}
	opt = Options{Method: NLJ, Epsilon: 1, BufferPages: 4, Pipeline: PipelineOptions{Prefetch: PrefetchOff}}
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	if opt.Pipeline.Prefetch != PrefetchOff {
		t.Errorf("explicit off became %v", opt.Pipeline.Prefetch)
	}
	bad := Options{Method: NLJ, Epsilon: 1, BufferPages: 4, Pipeline: PipelineOptions{Prefetch: PrefetchMode(99)}}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted prefetch mode 99")
	}
	bad = Options{Method: NLJ, Epsilon: 1, BufferPages: 4, Pipeline: PipelineOptions{PrefetchDepth: -1}}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted negative PrefetchDepth")
	}
}

// TestPrefetchModeText pins the text round-trip alongside the other enums.
func TestPrefetchModeText(t *testing.T) {
	for _, m := range []PrefetchMode{PrefetchDefault, PrefetchOn, PrefetchOff} {
		text, err := m.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back PrefetchMode
		if err := back.UnmarshalText(text); err != nil {
			t.Fatal(err)
		}
		if back != m {
			t.Errorf("round trip %v -> %q -> %v", m, text, back)
		}
	}
	if _, err := ParsePrefetchMode("sometimes"); err == nil {
		t.Error("ParsePrefetchMode accepted garbage")
	}
	if m, err := ParsePrefetchMode("ON"); err != nil || m != PrefetchOn {
		t.Errorf("ParsePrefetchMode(ON) = %v, %v", m, err)
	}
	if _, err := PrefetchMode(42).MarshalText(); err == nil {
		t.Error("MarshalText accepted out-of-range mode")
	}
}

// TestExplainPrefetchPrediction pins the analytic side: Prefetchable is
// Reads at every schedule position except the first, PrefetchablePages sums
// them, and PredictedOverlapSeconds is positive exactly when something is
// prefetchable.
func TestExplainPrefetchPrediction(t *testing.T) {
	sys := NewSystem(DiskModel{PageBytes: 256})
	da, err := sys.AddVectors("a", randomVecs(400, 2, 21), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sys.AddVectors("b", randomVecs(300, 2, 22), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Explain(da, db, Options{Method: SC, Epsilon: 0.05, BufferPages: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.ClusterIO) < 2 {
		t.Fatalf("workload produced %d clusters; need >= 2 to exercise prefetch prediction", len(plan.ClusterIO))
	}
	var sum int64
	for pos, c := range plan.ClusterIO {
		want := c.Reads
		if pos == 0 {
			want = 0
		}
		if c.Prefetchable != want {
			t.Errorf("position %d: Prefetchable = %d, want %d", pos, c.Prefetchable, want)
		}
		sum += int64(c.Prefetchable)
	}
	if plan.PrefetchablePages != sum {
		t.Errorf("PrefetchablePages = %d, want sum %d", plan.PrefetchablePages, sum)
	}
	if sum > 0 && plan.PredictedOverlapSeconds <= 0 {
		t.Errorf("PredictedOverlapSeconds = %g with %d prefetchable pages", plan.PredictedOverlapSeconds, sum)
	}
}
