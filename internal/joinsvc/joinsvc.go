// Package joinsvc exposes a pmjoin.Server over HTTP/JSON: the handler layer
// of the pmjoind daemon, kept importable so tests and the load harness can
// drive the exact production endpoints in process (net/http/httptest) without
// a socket.
//
// Endpoints:
//
//	POST /open        create a synthetic dataset (internal/dataset generators)
//	POST /join        run a join; 429 + Retry-After under admission overload
//	POST /explain     plan a join (System.ExplainContext, from the System's plan memo)
//	GET  /metrics     text exposition of service counters + folded metrics
//	GET  /debug/joins JSON dump of in-flight and recent requests
//	GET  /healthz     liveness
//
// The handlers spawn no goroutines and keep no per-request state beyond the
// Server's own registry; concurrency is whatever net/http provides, bounded
// downstream by the Server's admission controller.
package joinsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"pmjoin"
	"pmjoin/internal/dataset"
	"pmjoin/internal/geom"
	"pmjoin/internal/metrics"
)

// Service routes HTTP requests to a pmjoin.Server and owns the name→dataset
// registry.
type Service struct {
	srv *pmjoin.Server

	mu sync.Mutex
	// datasets maps each taken name to its dataset; a nil value is a name
	// /open has reserved while it generates the dataset.
	datasets map[string]*pmjoin.Dataset
}

// New wraps srv. Its datasets are the synthetic ones /open creates.
func New(srv *pmjoin.Server) *Service {
	return &Service{srv: srv, datasets: make(map[string]*pmjoin.Dataset)}
}

// Server returns the wrapped pmjoin.Server.
func (s *Service) Server() *pmjoin.Server { return s.srv }

// reserve takes name for a dataset not yet built, or errors if it is taken.
func (s *Service) reserve(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.datasets[name]; ok {
		return fmt.Errorf("joinsvc: dataset %q already exists", name)
	}
	s.datasets[name] = nil
	return nil
}

// settle ends a reservation: it registers d under name, or releases the name
// when d is nil.
func (s *Service) settle(name string, d *pmjoin.Dataset) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d == nil {
		delete(s.datasets, name)
		return
	}
	s.datasets[name] = d
}

// Dataset returns the registered dataset, or nil.
func (s *Service) Dataset(name string) *pmjoin.Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.datasets[name]
}

// Handler returns the service's HTTP routes on a fresh mux.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/open", s.handleOpen)
	mux.HandleFunc("/join", s.handleJoin)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/joins", s.handleDebugJoins)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// OpenRequest asks the service to generate and index a synthetic dataset.
type OpenRequest struct {
	Name string      `json:"name"`
	Kind pmjoin.Kind `json:"kind"` // "vector", "series" or "string"
	// N is the object count: vectors, series samples, or string length.
	N    int   `json:"n"`
	Seed int64 `json:"seed"`
	// Dim selects the vector generator: 2 draws road-network-like points,
	// higher dimensions draw Landsat-like feature vectors. Vector only.
	Dim int `json:"dim,omitempty"`
	// Window and Stride shape the subsequence index (series and string).
	Window int `json:"window,omitempty"`
	Stride int `json:"stride,omitempty"`
	// PageBytes overrides the system page size for this dataset.
	PageBytes int `json:"pageBytes,omitempty"`
}

// OpenResponse describes the created dataset.
type OpenResponse struct {
	Name    string      `json:"name"`
	Kind    pmjoin.Kind `json:"kind"`
	Pages   int         `json:"pages"`
	Objects int         `json:"objects"`
}

func (s *Service) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req OpenRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Name == "" || req.N <= 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("joinsvc: open needs a name and n > 0"))
		return
	}
	// Take the name before generating: every dataset added to the System
	// stays on its disk (and in an attached store's files), so a dataset
	// generated for a name that is taken would be lost but never freed.
	if err := s.reserve(req.Name); err != nil {
		s.fail(w, http.StatusConflict, err)
		return
	}
	d, err := s.generate(req)
	if err != nil {
		s.settle(req.Name, nil)
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	s.settle(req.Name, d)
	s.reply(w, OpenResponse{Name: req.Name, Kind: d.Kind(), Pages: d.Pages(), Objects: d.Objects()})
}

// generate builds the synthetic dataset req describes on the System.
func (s *Service) generate(req OpenRequest) (*pmjoin.Dataset, error) {
	sys := s.srv.System()
	switch req.Kind {
	case pmjoin.KindVector:
		dim := req.Dim
		if dim == 0 {
			dim = 2
		}
		var vecs []geom.Vector
		if dim <= 2 {
			vecs = dataset.RoadIntersections(req.N, req.Seed)
		} else {
			vecs = dataset.Landsat(req.N, dim, req.Seed)
		}
		return sys.AddVectors(req.Name, dataset.ToFloats(vecs), pmjoin.VectorOptions{PageBytes: req.PageBytes})
	case pmjoin.KindSeries:
		window := req.Window
		if window == 0 {
			window = 32
		}
		return sys.AddSeries(req.Name, dataset.RandomWalk(req.N, req.Seed), pmjoin.SeriesOptions{
			Window: window, Stride: req.Stride, PageBytes: req.PageBytes,
		})
	case pmjoin.KindString:
		window := req.Window
		if window == 0 {
			window = 64
		}
		return sys.AddString(req.Name, dataset.DNA(req.N, req.Seed), pmjoin.StringOptions{
			Window: window, Stride: req.Stride, PageBytes: req.PageBytes,
		})
	default:
		return nil, fmt.Errorf("joinsvc: unknown kind %v", req.Kind)
	}
}

// JoinOptions is the wire form of pmjoin.Options (the service subset).
type JoinOptions struct {
	Method       pmjoin.Method `json:"method"`
	Epsilon      float64       `json:"epsilon"`
	BufferPages  int           `json:"bufferPages"`
	Parallelism  int           `json:"parallelism,omitempty"`
	Seed         int64         `json:"seed,omitempty"`
	CollectPairs bool          `json:"collectPairs,omitempty"`
	MaxPairs     int           `json:"maxPairs,omitempty"`
	FilterDepth  int           `json:"filterDepth,omitempty"`
	Shards       int           `json:"shards,omitempty"`
	ShardWorkers int           `json:"shardWorkers,omitempty"`
	Trace        bool          `json:"trace,omitempty"`
}

func (o JoinOptions) options() pmjoin.Options {
	return pmjoin.Options{
		Method:       o.Method,
		Epsilon:      o.Epsilon,
		BufferPages:  o.BufferPages,
		Parallelism:  o.Parallelism,
		Seed:         o.Seed,
		CollectPairs: o.CollectPairs,
		MaxPairs:     o.MaxPairs,
		FilterDepth:  o.FilterDepth,
		Trace:        o.Trace,
		Sharding:     pmjoin.ShardingOptions{Shards: o.Shards, Workers: o.ShardWorkers},
	}
}

// JoinRequest names two registered datasets and the join options.
type JoinRequest struct {
	Left    string      `json:"left"`
	Right   string      `json:"right"`
	Options JoinOptions `json:"options"`
}

// JoinResponse is the deterministic result summary plus execution notes.
type JoinResponse struct {
	Results           int64   `json:"results"`
	TotalSeconds      float64 `json:"totalSeconds"`
	IOSeconds         float64 `json:"ioSeconds"`
	CPUJoinSeconds    float64 `json:"cpuJoinSeconds"`
	PreprocessSeconds float64 `json:"preprocessSeconds"`
	PageReads         int64   `json:"pageReads"`
	Seeks             int64   `json:"seeks"`
	Comparisons       int64   `json:"comparisons"`
	Clusters          int     `json:"clusters"`
	Method            string  `json:"method"`
	MarkedEntries     int     `json:"markedEntries,omitempty"`
	MatrixDensity     float64 `json:"matrixDensity,omitempty"`

	Pairs     [][2]int `json:"pairs,omitempty"`
	Truncated bool     `json:"truncated,omitempty"`

	// Execution profile (outside the determinism contract).
	Workers      int  `json:"workers"`
	Shards       int  `json:"shards,omitempty"`
	ShardWorkers int  `json:"shardWorkers,omitempty"`
	Cancelled    bool `json:"cancelled,omitempty"`
}

func (s *Service) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !s.decode(w, r, &req) {
		return
	}
	a, b, ok := s.pair(w, req.Left, req.Right)
	if !ok {
		return
	}
	// The request context carries client cancellation: a dropped connection
	// cancels the join at its next cluster boundary.
	res, err := s.srv.Join(r.Context(), a, b, req.Options.options())
	if err != nil {
		s.failJoin(w, err)
		return
	}
	resp := JoinResponse{
		Results:           res.Report.Results,
		TotalSeconds:      res.TotalSeconds(),
		IOSeconds:         res.Report.IOSeconds,
		CPUJoinSeconds:    res.Report.CPUJoinSeconds,
		PreprocessSeconds: res.Report.PreprocessSeconds,
		PageReads:         res.Report.PageReads,
		Seeks:             res.Report.Seeks,
		Comparisons:       res.Report.Comparisons,
		Clusters:          res.Report.Clusters,
		Method:            res.Report.Method,
		MarkedEntries:     res.MarkedEntries,
		MatrixDensity:     res.MatrixDensity,
		Pairs:             res.Pairs,
		Truncated:         res.Truncated,
		Workers:           res.Exec.Workers,
		Shards:            res.Exec.Shards,
		ShardWorkers:      res.Exec.ShardWorkers,
		Cancelled:         res.Exec.Cancelled,
	}
	s.reply(w, resp)
}

// ExplainRequest mirrors JoinRequest for the plan endpoint.
type ExplainRequest struct {
	Left    string      `json:"left"`
	Right   string      `json:"right"`
	Options JoinOptions `json:"options"`
}

func (s *Service) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if !s.decode(w, r, &req) {
		return
	}
	a, b, ok := s.pair(w, req.Left, req.Right)
	if !ok {
		return
	}
	plan, err := s.srv.System().ExplainContext(r.Context(), a, b, req.Options.options())
	if err != nil {
		s.failJoin(w, err)
		return
	}
	s.reply(w, plan)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.srv.Stats()
	m := s.srv.Metrics()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	p := func(name string, v any) { fmt.Fprintf(w, "pmjoind_%s %v\n", name, v) }
	p("joins_admitted_total", st.Admitted)
	p("joins_rejected_total", st.Rejected)
	p("joins_deadline_expired_total", st.DeadlineExpired)
	p("joins_completed_total", st.Completed)
	p("joins_failed_total", st.Failed)
	p("admission_frames_in_use", st.InUseFrames)
	p("admission_frames_high_water", st.FramesHighWater)
	p("admission_queued", st.Queued)
	p("admission_queue_high_water", st.QueueHighWater)
	p("plan_cache_hits_total", st.PlanHits)
	p("plan_cache_misses_total", st.PlanMisses)
	p("folded_runs_total", m.FoldedRuns)
	p("folded_disk_reads_total", m.Disk.Reads)
	p("folded_disk_seeks_total", m.Disk.Seeks)
	p("folded_buffer_hits_total", m.Buffer.Hits)
	p("folded_buffer_misses_total", m.Buffer.Misses)
	p("folded_wall_seconds_total", m.Wall.Seconds())
	for ph, ps := range m.Phases {
		fmt.Fprintf(w, "pmjoind_folded_phase_wall_seconds{phase=%q} %v\n",
			metrics.Phase(ph).String(), ps.Wall.Seconds())
	}
}

// DebugJoins is the /debug/joins payload.
type DebugJoins struct {
	Active []pmjoin.JoinStatus `json:"active"`
	Recent []pmjoin.JoinStatus `json:"recent"`
}

func (s *Service) handleDebugJoins(w http.ResponseWriter, r *http.Request) {
	active, recent := s.srv.Joins()
	if active == nil {
		active = []pmjoin.JoinStatus{}
	}
	if recent == nil {
		recent = []pmjoin.JoinStatus{}
	}
	s.reply(w, DebugJoins{Active: active, Recent: recent})
}

// pair resolves two dataset names, writing a 404 on a miss.
func (s *Service) pair(w http.ResponseWriter, left, right string) (a, b *pmjoin.Dataset, ok bool) {
	a, b = s.Dataset(left), s.Dataset(right)
	if a == nil || b == nil {
		missing := left
		if a != nil {
			missing = right
		}
		s.fail(w, http.StatusNotFound, fmt.Errorf("joinsvc: unknown dataset %q", missing))
		return nil, nil, false
	}
	return a, b, true
}

// maxBodyBytes bounds a request body; reading past it fails the request.
const maxBodyBytes = 1 << 20

// decode reads a POST body strictly: one JSON value of at most maxBodyBytes,
// no unknown fields, and nothing but white space after it. Any other body is
// a 400.
func (s *Service) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("joinsvc: %s requires POST", r.URL.Path))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("joinsvc: bad request body: %w", err))
		return false
	}
	return true
}

// failJoin maps a join/explain error to its status: admission overload is
// backpressure (429, retryable), everything else from the library is a
// request problem (400).
func (s *Service) failJoin(w http.ResponseWriter, err error) {
	if errors.Is(err, pmjoin.ErrOverloaded) {
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, err)
		return
	}
	s.fail(w, http.StatusBadRequest, err)
}

func (s *Service) fail(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Encoding a flat string map cannot fail; the error return is noise.
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (s *Service) reply(w http.ResponseWriter, payload any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(payload); err != nil {
		// Headers are gone; nothing to salvage but the connection error is
		// the client's, not ours.
		return
	}
}
