package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"pmjoin"
	"pmjoin/internal/dataset"
	"pmjoin/internal/joinsvc"
)

// serve_mix constants: the two road-point sets are opened through /open, whose
// generators take one seed for structure and sample alike, so the sets are the
// workload's fixed shape (a trimmed set packs into a differently shaped tree
// whose matrix build costs up to 3x more or less); -seed draws the request
// schedule.
const (
	serveEps       = 0.0128495
	serveN1        = dataset.LBeachSize
	serveN2        = dataset.MCountySize
	servePageBytes = 1024
	serveClients   = 2
	servePerClient = 150
	serveSoloB     = 160
	serveSetUps    = 7
)

// reqKind is one request shape of the mix.
type reqKind struct {
	name    string
	path    string
	options map[string]any
}

func joinKind(name, method string, b, shards int) reqKind {
	o := map[string]any{"method": method, "epsilon": serveEps, "bufferPages": b}
	if shards > 0 {
		o["shards"] = shards
	}
	return reqKind{name: name, path: "/join", options: o}
}

var (
	kindSC80    = joinKind("sc80", "SC", 80, 0)
	kindSC160   = joinKind("sc160", "SC", serveSoloB, 0)
	kindSC320   = joinKind("sc320", "SC", 320, 0)
	kindCC      = joinKind("cc", "CC", 320, 0)
	kindSharded = joinKind("sharded", "SC", serveSoloB, 2)
	kindExplain = reqKind{name: "explain", path: "/explain",
		options: map[string]any{"method": "SC", "epsilon": serveEps, "bufferPages": serveSoloB}}
)

// mixPattern holds the request mix as 20 equally likely slots: 60 % SC joins
// over three buffer sizes, 15 % CC joins, 10 % two-shard joins, 15 % explains.
// Each client draws every request from it with its own seed-derived stream.
var mixPattern = []*reqKind{
	&kindSC80, &kindSC160, &kindSC320, &kindCC, &kindExplain,
	&kindSC80, &kindSC160, &kindSC320, &kindSharded, &kindCC,
	&kindSC80, &kindSC160, &kindSC320, &kindExplain, &kindSharded,
	&kindSC80, &kindSC160, &kindSC320, &kindCC, &kindExplain,
}

// expect is what a solo System.Join / Explain on identical data returns for
// a request kind; every response must repeat it.
type expect struct {
	results, pageReads, comparisons int64
	ioSeconds                       float64
	marked, clusters                int // explain
}

// serveRun is the in-process service under test plus the solo twin its
// responses are checked against.
type serveRun struct {
	cfg     config
	r       *result
	handler http.Handler
	srv     *pmjoin.Server
	want    map[string]expect
}

func runServe(cfg config, r *result) error {
	sv := &serveRun{cfg: cfg, r: r, want: make(map[string]expect)}
	reps := serveSetUps
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		s, err := sv.open()
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}
	if err := sv.soloTwin(); err != nil {
		return err
	}

	// Untimed first contact: every kind once, so the matrix for ε₀ is cached.
	for i, k := range []*reqKind{&kindSC80, &kindSC160, &kindSC320, &kindCC, &kindSharded, &kindExplain} {
		sv.request(k, serveEps, "warm-up", i, -1)
	}

	solo := sv.soloPhase()
	before := totalAllocMB()
	resetPeakRSS()
	lat, wall := sv.clientPhase()
	allocMB, peakMB := totalAllocMB()-before, peakRSSMB()

	var all, joins, explains, loaded160 []float64
	var ioSum float64
	for _, l := range lat {
		all = append(all, l.seconds)
		if l.kind == &kindExplain {
			explains = append(explains, l.seconds)
			continue
		}
		joins = append(joins, l.seconds)
		ioSum += sv.want[l.kind.name].ioSeconds
		if l.kind == &kindSC160 {
			loaded160 = append(loaded160, l.seconds)
		}
	}

	if !cfg.trace {
		r.set("setup_s", median(setups))
		r.setTiming("join_cold_s", solo.cold)
		r.setTiming("join_warm_s", solo.warm)
		r.set("alloc_mb_per_join", allocMB/float64(len(all)))
		r.set("rss_peak_mb", peakMB)
		r.set("modeled_io_s", ratio(ioSum, float64(len(joins))))
		r.setTiming("req_p50_s", all)
		r.set("req_p90_s", quantileOf(all, 0.90))
		r.set("req_per_s", float64(len(all))/wall)
		return nil
	}

	st := sv.srv.Stats()
	r.set("serve.plan_hit_ratio", ratio(float64(st.PlanHits), float64(st.PlanHits+st.PlanMisses)))
	r.set("serve.shared_hit_ratio", ratio(float64(st.Shared.Hits), float64(st.Shared.Hits+st.Shared.Misses)))
	r.set("serve.queue_highwater", float64(st.QueueHighWater))
	r.set("serve.frames_highwater", float64(st.FramesHighWater))
	r.set("serve.rejected", float64(st.Rejected+st.DeadlineExpired))
	r.setTiming("serve.join_p50_s", joins)
	r.setTiming("serve.explain_p50_s", explains)
	r.setTiming("serve.solo_join_s", solo.warm)
	// Like for like: the SC B=160 requests under two clients over the same
	// request alone.
	r.set("serve.contention_ratio", ratio(median(loaded160), median(solo.warm)))
	r.set("join.results", float64(sv.want[kindSC160.name].results))
	r.set("join.comparisons", float64(sv.want[kindSC160.name].comparisons))
	r.set("disk.page_reads", float64(sv.want[kindSC160.name].pageReads))
	return nil
}

// open builds a fresh System, Server and handler and opens both datasets
// through /open; it returns the wall time, which is serve_mix's set-up.
func (sv *serveRun) open() (float64, error) {
	start := time.Now()
	sys := pmjoin.NewSystem(pmjoin.DiskModel{
		SeekSeconds: seekSeconds, TransferSeconds: transferSeconds, PageBytes: servePageBytes,
	})
	srv, err := pmjoin.NewServer(sys, pmjoin.ServeOptions{})
	if err != nil {
		return 0, err
	}
	sv.srv, sv.handler = srv, joinsvc.New(srv).Handler()
	for _, d := range []struct {
		name    string
		n, seed int
	}{{"roads1", serveN1 / sv.cfg.shrink, roadShapeA}, {"roads2", serveN2 / sv.cfg.shrink, roadShapeB}} {
		code, body := sv.post("/open", map[string]any{
			"name": d.name, "kind": "vector", "n": d.n, "seed": d.seed, "dim": 2, "pageBytes": servePageBytes,
		})
		if code != http.StatusOK {
			return 0, fmt.Errorf("serve_mix: /open %s: %d %s", d.name, code, body)
		}
	}
	return time.Since(start).Seconds(), nil
}

// soloTwin indexes the same points on a private System through the library
// API and records what each request kind must return.
func (sv *serveRun) soloTwin() error {
	start := time.Now()
	v1 := dataset.ToFloats(dataset.RoadIntersections(serveN1/sv.cfg.shrink, roadShapeA))
	v2 := dataset.ToFloats(dataset.RoadIntersections(serveN2/sv.cfg.shrink, roadShapeB))
	genS := time.Since(start).Seconds()
	sys := pmjoin.NewSystem(pmjoin.DiskModel{
		SeekSeconds: seekSeconds, TransferSeconds: transferSeconds, PageBytes: servePageBytes,
	})
	a, err := sys.AddVectors("roads1", v1, pmjoin.VectorOptions{PageBytes: servePageBytes})
	if err != nil {
		return err
	}
	b, err := sys.AddVectors("roads2", v2, pmjoin.VectorOptions{PageBytes: servePageBytes})
	if err != nil {
		return err
	}
	if sv.cfg.trace {
		sv.r.set("dataset.gen_s", genS)
		sv.r.set("index.build_s", time.Since(start).Seconds()-genS)
	}
	for _, k := range []struct {
		kind *reqKind
		opt  pmjoin.Options
	}{
		{&kindSC80, pmjoin.Options{Method: pmjoin.SC, BufferPages: 80}},
		{&kindSC160, pmjoin.Options{Method: pmjoin.SC, BufferPages: serveSoloB}},
		{&kindSC320, pmjoin.Options{Method: pmjoin.SC, BufferPages: 320}},
		{&kindCC, pmjoin.Options{Method: pmjoin.CC, BufferPages: 320}},
		{&kindSharded, pmjoin.Options{Method: pmjoin.SC, BufferPages: serveSoloB, Sharding: pmjoin.ShardingOptions{Shards: 2}}},
	} {
		k.opt.Epsilon = serveEps
		res, err := sys.Join(a, b, k.opt)
		if err != nil {
			return fmt.Errorf("serve_mix: solo %s: %w", k.kind.name, err)
		}
		sv.want[k.kind.name] = expect{
			results: res.Report.Results, pageReads: res.Report.PageReads,
			comparisons: res.Report.Comparisons, ioSeconds: res.Report.IOSeconds,
		}
	}
	plan, err := sys.Explain(a, b, pmjoin.Options{Method: pmjoin.SC, Epsilon: serveEps, BufferPages: serveSoloB})
	if err != nil {
		return fmt.Errorf("serve_mix: solo explain: %w", err)
	}
	sv.want[kindExplain.name] = expect{marked: plan.MarkedEntries, clusters: plan.Clusters}
	return nil
}

// post sends one JSON request to the handler in process (no sockets).
func (sv *serveRun) post(path string, body any) (int, []byte) {
	buf, err := json.Marshal(body)
	if err != nil {
		panic(err) // request bodies are maps of strings and numbers
	}
	w := httptest.NewRecorder()
	sv.handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf)))
	return w.Code, w.Body.Bytes()
}

// request issues one request of kind k at threshold eps, checks the reply
// against the solo twin, and returns its latency.
func (sv *serveRun) request(k *reqKind, eps float64, span string, iter, parent int) float64 {
	options := make(map[string]any, len(k.options))
	for name, v := range k.options { // map copy; order-free
		options[name] = v
	}
	options["epsilon"] = eps
	var code int
	var body []byte
	seconds := sv.r.spans.do(span+"."+k.name, iter, parent, func(int) {
		code, body = sv.post(k.path, map[string]any{"left": "roads1", "right": "roads2", "options": options})
	})

	want := sv.want[k.name]
	ok := code == http.StatusOK
	var detail string
	if ok && k == &kindExplain {
		var got struct{ MarkedEntries, Clusters int }
		ok = json.Unmarshal(body, &got) == nil && got.MarkedEntries == want.marked && got.Clusters == want.clusters
		detail = fmt.Sprintf("%+v", got)
	} else if ok {
		var got struct {
			Results     int64 `json:"results"`
			PageReads   int64 `json:"pageReads"`
			Comparisons int64 `json:"comparisons"`
		}
		ok = json.Unmarshal(body, &got) == nil && got.Results == want.results &&
			got.PageReads == want.pageReads && got.Comparisons == want.comparisons
		detail = fmt.Sprintf("%+v", got)
	} else {
		detail = string(body)
	}
	sv.r.check(ok, "%s %s #%d: status %d, got %s, want %+v", span, k.name, iter, code, detail, want)
	return seconds
}

type soloTimes struct{ cold, warm []float64 }

// soloPhase times one caller's SC B=160 join through the handler: cold under
// fresh matrix keys, warm at ε₀.
func (sv *serveRun) soloPhase() soloTimes {
	var out soloTimes
	n := sv.cfg.iters(40)
	for i := 0; i < n; i++ {
		runtime.GC()
		out.cold = append(out.cold, sv.request(&kindSC160, epsK(serveEps, i+1), "solo.cold", i, -1))
		runtime.GC()
		out.warm = append(out.warm, sv.request(&kindSC160, serveEps, "solo.warm", i, -1))
	}
	return out
}

// latency is one client-phase request.
type latency struct {
	kind    *reqKind
	seconds float64
}

// clientPhase is the closed loop: each of two clients sends its next request
// when the previous reply arrives. It returns every latency and the phase's
// wall time.
func (sv *serveRun) clientPhase() ([]latency, float64) {
	perClient := sv.cfg.iters(servePerClient)
	schedules := make([][]*reqKind, serveClients)
	for c := range schedules {
		rng := rand.New(rand.NewSource(subSeed(sv.cfg.seed, int64(c))))
		s := make([]*reqKind, perClient)
		for i := range s {
			s[i] = mixPattern[rng.Intn(len(mixPattern))]
		}
		schedules[c] = s
	}

	lat := make([][]latency, serveClients)
	var wg sync.WaitGroup
	runtime.GC()
	start := time.Now()
	for c := range schedules {
		wg.Add(1)
		//lint:ignore rawgo the closed-loop clients are the load generator itself: bounded at two, joined by the WaitGroup before the phase returns, results slotted per client
		go func(c int) {
			defer wg.Done()
			for i, k := range schedules[c] {
				lat[c] = append(lat[c], latency{k, sv.request(k, serveEps, fmt.Sprintf("client%d", c), i, -1)})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	var all []latency
	for _, l := range lat {
		all = append(all, l...)
	}
	return all, wall
}
