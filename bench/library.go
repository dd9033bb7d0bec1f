package main

import (
	"fmt"
	"runtime"
	"time"

	"pmjoin"
)

// counters are the exact figures every iteration of a workload must repeat:
// the ULP-perturbed ε that makes a join cold must not move any of them.
type counters struct {
	results, comparisons, pageReads, seeks int64
}

func countersOf(res *pmjoin.Result) counters {
	return counters{res.Report.Results, res.Report.Comparisons, res.Report.PageReads, res.Report.Seeks}
}

// libRun is one library workload's state across its passes.
type libRun struct {
	cfg  config
	spec *libSpec
	fx   *fixture
	r    *result

	base     counters       // iteration 0's exact counters
	baseline *pmjoin.Result // iteration 0: cold at ε₀, pairs collected
	nextKey  int            // matrix-cache keys handed out so far
	peaksMB  []float64      // peak resident size of each join so far
}

func runLibrary(cfg config, spec *libSpec, r *result) error {
	reps := spec.setUps
	if cfg.trace {
		reps = 1 // the traced pass reports the set-up's parts, not setup_s
	}
	fx, setupS, err := setUpMedian(cfg, spec, reps)
	if err != nil {
		return err
	}
	lib := &libRun{cfg: cfg, spec: spec, fx: fx, r: r}
	if err := lib.iterationZero(); err != nil {
		fx.close()
		return err
	}
	if cfg.trace {
		err = lib.tracedPass()
	} else {
		r.set("setup_s", setupS)
		err = lib.endToEndPass()
	}
	if cerr := fx.close(); err == nil {
		err = cerr
	}
	return err
}

// join runs one harness-timed System.Join and notes the peak resident size
// the call reached.
func (lib *libRun) join(opt pmjoin.Options) (wall float64, res *pmjoin.Result, err error) {
	runtime.GC() // one call's garbage is not charged to the next
	resetPeakRSS()
	start := time.Now()
	res, err = lib.fx.sys.Join(lib.fx.a, lib.fx.b, opt)
	wall = time.Since(start).Seconds()
	lib.peaksMB = append(lib.peaksMB, peakRSSMB())
	if err != nil {
		err = fmt.Errorf("%s: join: %w", lib.spec.name, err)
	}
	return wall, res, err
}

// freshKey returns the workload's options under a matrix-cache key no earlier
// join used, so the next join builds its matrix.
func (lib *libRun) freshKey() pmjoin.Options {
	lib.nextKey++
	opt := lib.spec.opt
	opt.Epsilon = epsK(opt.Epsilon, lib.nextKey)
	return opt
}

// verify counts one iteration: the matrix was built exactly when the
// iteration was meant to be cold, and the exact counters equal iteration 0's.
func (lib *libRun) verify(what string, res *pmjoin.Result, cold bool) {
	built := res.Exec.MatrixWall > 0
	got := countersOf(res)
	lib.r.check(built == cold && got == lib.base,
		"%s: matrix built=%v (want %v), counters %+v (want %+v)", what, built, cold, got, lib.base)
}

// iterationZero is the untimed first contact: one cold join at ε₀ collecting
// every pair, checked against the brute-force oracle, whose counters every
// later iteration must repeat; then one warm join with the workload's own
// options.
func (lib *libRun) iterationZero() error {
	opt := lib.spec.opt
	opt.CollectPairs, opt.MaxPairs = true, 1<<30
	_, res, err := lib.join(opt)
	if err != nil {
		return err
	}
	lib.baseline, lib.base = res, countersOf(res)
	lib.verify("iteration 0", res, true)
	lib.r.check(!res.Truncated && int64(len(res.Pairs)) == res.Report.Results,
		"iteration 0 collected %d pairs of %d results", len(res.Pairs), res.Report.Results)
	lib.oracle(res.Pairs)

	_, res, err = lib.join(lib.spec.opt)
	if err != nil {
		return err
	}
	lib.verify("warm-up", res, false)
	return nil
}

// endToEndPass is the untraced closed loop with one caller: cold joins under
// fresh matrix keys, each followed by warm repeats of the same key.
func (lib *libRun) endToEndPass() error {
	var cold, warm, all []float64
	var allocMB float64
	lib.peaksMB = nil
	nCold := lib.cfg.iters(lib.spec.cold)
	for i := 0; i < nCold; i++ {
		opt := lib.freshKey()
		wall, res, err := lib.join(opt)
		if err != nil {
			return err
		}
		lib.verify(fmt.Sprintf("cold %d", i), res, true)
		cold, all = append(cold, wall), append(all, wall)

		for j := 0; j < lib.spec.warmPerCold; j++ {
			before := totalAllocMB()
			wall, res, err := lib.join(opt)
			if err != nil {
				return err
			}
			allocMB += totalAllocMB() - before
			lib.verify(fmt.Sprintf("warm %d.%d", i, j), res, false)
			warm, all = append(warm, wall), append(all, wall)
		}
	}

	r := lib.r
	r.setTiming("join_cold_s", cold)
	r.setTiming("join_warm_s", warm)
	r.set("alloc_mb_per_join", allocMB/float64(len(warm)))
	r.set("modeled_io_s", lib.baseline.Report.IOSeconds)
	r.setTiming("rss_peak_mb", lib.peaksMB)
	// The request view of the same loop: every timed join is a request of
	// the single caller; throughput is over the time spent inside Join.
	r.setTiming("req_p50_s", all)
	r.set("req_p90_s", quantileOf(all, 0.90))
	var busy float64
	for _, w := range all {
		busy += w
	}
	r.set("req_per_s", float64(len(all))/busy)
	return nil
}
