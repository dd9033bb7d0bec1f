package joinsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"pmjoin"
)

func newTestService(t *testing.T) *Service {
	t.Helper()
	sys := pmjoin.NewSystem(pmjoin.DiskModel{PageBytes: 256})
	srv, err := pmjoin.NewServer(sys, pmjoin.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return New(srv)
}

func post(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", w.Body.String(), err)
	}
	return v
}

func TestOpenJoinRoundTrip(t *testing.T) {
	svc := newTestService(t)
	h := svc.Handler()

	for _, open := range []OpenRequest{
		{Name: "a", Kind: pmjoin.KindVector, N: 200, Seed: 1},
		{Name: "b", Kind: pmjoin.KindVector, N: 150, Seed: 2},
	} {
		w := post(t, h, "/open", open)
		if w.Code != http.StatusOK {
			t.Fatalf("open %s: %d %s", open.Name, w.Code, w.Body.String())
		}
		resp := decode[OpenResponse](t, w)
		if resp.Kind != pmjoin.KindVector || resp.Objects != open.N || resp.Pages <= 0 {
			t.Fatalf("open response = %+v", resp)
		}
	}

	jo := JoinOptions{Method: pmjoin.SC, Epsilon: 0.05, BufferPages: 32,
		CollectPairs: true, MaxPairs: 500}
	w := post(t, h, "/join", JoinRequest{Left: "a", Right: "b", Options: jo})
	if w.Code != http.StatusOK {
		t.Fatalf("join: %d %s", w.Code, w.Body.String())
	}
	got := decode[JoinResponse](t, w)
	if got.Method == "" || got.PageReads <= 0 || got.TotalSeconds <= 0 {
		t.Fatalf("join response = %+v", got)
	}

	// The HTTP path must report exactly what a direct Server call reports.
	direct, err := svc.Server().Join(context.Background(),
		svc.Dataset("a"), svc.Dataset("b"), jo.options())
	if err != nil {
		t.Fatal(err)
	}
	if got.Results != direct.Report.Results || got.PageReads != direct.Report.PageReads ||
		got.Comparisons != direct.Report.Comparisons || got.Truncated != direct.Truncated ||
		len(got.Pairs) != len(direct.Pairs) {
		t.Fatalf("HTTP join diverged from direct call:\nhttp   %+v\ndirect %+v",
			got, direct.Report)
	}
}

func TestOpenSeriesAndString(t *testing.T) {
	svc := newTestService(t)
	h := svc.Handler()

	w := post(t, h, "/open", OpenRequest{Name: "walk", Kind: pmjoin.KindSeries, N: 800, Seed: 3})
	if w.Code != http.StatusOK {
		t.Fatalf("open series: %d %s", w.Code, w.Body.String())
	}
	if resp := decode[OpenResponse](t, w); resp.Kind != pmjoin.KindSeries || resp.Objects <= 0 {
		t.Fatalf("series response = %+v", resp)
	}

	w = post(t, h, "/open", OpenRequest{Name: "dna", Kind: pmjoin.KindString, N: 1200, Seed: 4})
	if w.Code != http.StatusOK {
		t.Fatalf("open string: %d %s", w.Code, w.Body.String())
	}
	if resp := decode[OpenResponse](t, w); resp.Kind != pmjoin.KindString || resp.Objects <= 0 {
		t.Fatalf("string response = %+v", resp)
	}
	if names := svc.DatasetNames(); len(names) != 2 || names[0] != "dna" || names[1] != "walk" {
		t.Fatalf("names = %v", names)
	}
}

func TestErrorStatuses(t *testing.T) {
	svc := newTestService(t)
	h := svc.Handler()

	ok := post(t, h, "/open", OpenRequest{Name: "a", Kind: pmjoin.KindVector, N: 50, Seed: 1})
	if ok.Code != http.StatusOK {
		t.Fatalf("seed open: %d", ok.Code)
	}

	cases := []struct {
		name  string
		do    func() *httptest.ResponseRecorder
		want  int
		names string // substring the error message must carry, if any
	}{
		{"duplicate name", func() *httptest.ResponseRecorder {
			return post(t, h, "/open", OpenRequest{Name: "a", Kind: pmjoin.KindVector, N: 50, Seed: 1})
		}, http.StatusConflict, ""},
		{"missing n", func() *httptest.ResponseRecorder {
			return post(t, h, "/open", OpenRequest{Name: "x", Kind: pmjoin.KindVector})
		}, http.StatusBadRequest, ""},
		{"unknown dataset", func() *httptest.ResponseRecorder {
			return post(t, h, "/join", JoinRequest{Left: "a", Right: "nope",
				Options: JoinOptions{Method: pmjoin.SC, Epsilon: 0.1}})
		}, http.StatusNotFound, ""},
		{"invalid options", func() *httptest.ResponseRecorder {
			return post(t, h, "/join", JoinRequest{Left: "a", Right: "a",
				Options: JoinOptions{Method: pmjoin.SC, Epsilon: -1}})
		}, http.StatusBadRequest, ""},
		{"GET on POST route", func() *httptest.ResponseRecorder {
			return get(t, h, "/join")
		}, http.StatusMethodNotAllowed, ""},
		{"malformed body", func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/join", strings.NewReader("{"))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			return w
		}, http.StatusBadRequest, ""},
		{"unknown field", func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/join",
				strings.NewReader(`{"left":"a","right":"a","bogus":1}`))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			return w
		}, http.StatusBadRequest, ""},
		{"data after the value", func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/join",
				strings.NewReader(`{"left":"a","right":"a","options":{"method":"SC","epsilon":0.1,"bufferPages":16}}{"x":1}`))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			return w
		}, http.StatusBadRequest, "after the JSON value"},
		{"oversized body", func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/open",
				strings.NewReader(`{"name":"big",`+strings.Repeat(" ", maxBodyBytes)+`"kind":"vector","n":10}`))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			return w
		}, http.StatusBadRequest, "too large"},
		// These options were removed with the knobs they set; a client still
		// sending one must be told which field to drop.
		{"removed kernelBatchOff option", func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/join",
				strings.NewReader(`{"left":"a","right":"a","options":{"method":"SC","epsilon":0.1,"kernelBatchOff":true}}`))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			return w
		}, http.StatusBadRequest, "kernelBatchOff"},
		{"removed prefetchOff option", func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/join",
				strings.NewReader(`{"left":"a","right":"a","options":{"method":"SC","epsilon":0.1,"prefetchOff":true}}`))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			return w
		}, http.StatusBadRequest, "prefetchOff"},
	}
	for _, tc := range cases {
		w := tc.do()
		if w.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.want, w.Body.String())
		}
		if e := decode[map[string]string](t, w); e["error"] == "" || !strings.Contains(e["error"], tc.names) {
			t.Errorf("%s: error message %q does not name %q", tc.name, w.Body.String(), tc.names)
		}
	}
}

// A repeated /open name is refused before anything is generated: the
// System keeps every dataset it is given, so generating first would leave an
// unreachable dataset on the disk and a new page file in an attached store.
func TestDuplicateOpenAddsNoFile(t *testing.T) {
	svc := newTestService(t)
	dir := t.TempDir()
	sys := svc.Server().System()
	if err := sys.UseFileStore(dir); err != nil {
		t.Fatal(err)
	}
	defer sys.CloseStore()
	h := svc.Handler()
	open := OpenRequest{Name: "a", Kind: pmjoin.KindVector, N: 50, Seed: 1}
	if w := post(t, h, "/open", open); w.Code != http.StatusOK {
		t.Fatalf("first open: %d %s", w.Code, w.Body.String())
	}
	files := func() int {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	before := files()
	if w := post(t, h, "/open", open); w.Code != http.StatusConflict {
		t.Fatalf("second open: %d %s, want %d", w.Code, w.Body.String(), http.StatusConflict)
	}
	if after := files(); after != before {
		t.Fatalf("store holds %d files after the refused open, %d before", after, before)
	}
	// A name whose generation fails is released, not left reserved.
	if w := post(t, h, "/open", OpenRequest{Name: "b", Kind: pmjoin.KindSeries, N: 10, Window: 32}); w.Code != http.StatusBadRequest {
		t.Fatalf("open of a series shorter than its window: %d %s", w.Code, w.Body.String())
	}
	if names := svc.DatasetNames(); len(names) != 1 || names[0] != "a" {
		t.Fatalf("names = %v, want [a]", names)
	}
}

func TestOverloadMapsTo429(t *testing.T) {
	svc := newTestService(t)
	w := httptest.NewRecorder()
	svc.failJoin(w, fmt.Errorf("admission: %w", pmjoin.ErrOverloaded))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestExplainCachedOverHTTP: /explain reads the System's plan memo, so a
// repeat is a hit with the same plan, and a /join of the same options runs
// that plan: a hit too.
func TestExplainCachedOverHTTP(t *testing.T) {
	svc := newTestService(t)
	h := svc.Handler()
	post(t, h, "/open", OpenRequest{Name: "a", Kind: pmjoin.KindVector, N: 100, Seed: 1})
	post(t, h, "/open", OpenRequest{Name: "b", Kind: pmjoin.KindVector, N: 100, Seed: 2})

	req := ExplainRequest{Left: "a", Right: "b",
		Options: JoinOptions{Method: pmjoin.SC, Epsilon: 0.1, BufferPages: 16}}
	first := post(t, h, "/explain", req)
	second := post(t, h, "/explain", req)
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("explain: %d / %d", first.Code, second.Code)
	}
	if first.Body.String() != second.Body.String() {
		t.Fatal("cached explain returned a different plan")
	}
	st := svc.Server().Stats()
	if st.PlanMisses != 1 || st.PlanHits != 1 {
		t.Fatalf("plan cache stats = hits %d misses %d", st.PlanHits, st.PlanMisses)
	}
	if w := post(t, h, "/join", JoinRequest{Left: "a", Right: "b", Options: req.Options}); w.Code != http.StatusOK {
		t.Fatalf("join: %d %s", w.Code, w.Body.String())
	}
	if st := svc.Server().Stats(); st.PlanMisses != 1 || st.PlanHits != 2 {
		t.Fatalf("after a join on the explained options: hits %d misses %d, want 2, 1", st.PlanHits, st.PlanMisses)
	}
}

func TestMetricsAndDebugEndpoints(t *testing.T) {
	svc := newTestService(t)
	h := svc.Handler()
	post(t, h, "/open", OpenRequest{Name: "a", Kind: pmjoin.KindVector, N: 120, Seed: 1})
	post(t, h, "/open", OpenRequest{Name: "b", Kind: pmjoin.KindVector, N: 90, Seed: 2})
	if w := post(t, h, "/join", JoinRequest{Left: "a", Right: "b",
		Options: JoinOptions{Method: pmjoin.SC, Epsilon: 0.05, BufferPages: 16}}); w.Code != http.StatusOK {
		t.Fatalf("join: %d %s", w.Code, w.Body.String())
	}

	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"pmjoind_joins_admitted_total 1",
		"pmjoind_joins_completed_total 1",
		"pmjoind_folded_runs_total 1",
		"pmjoind_folded_phase_wall_seconds{phase=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}

	if strings.Contains(body, "shared") {
		t.Errorf("metrics still carry a shared frame cache series:\n%s", body)
	}

	dw := get(t, h, "/debug/joins")
	if dw.Code != http.StatusOK {
		t.Fatalf("debug/joins: %d", dw.Code)
	}
	dbg := decode[DebugJoins](t, dw)
	if len(dbg.Active) != 0 || len(dbg.Recent) != 1 {
		t.Fatalf("debug joins = %+v", dbg)
	}
	if dbg.Recent[0].State != pmjoin.StateDone {
		t.Fatalf("recent state = %v", dbg.Recent[0].State)
	}

	if hw := get(t, h, "/healthz"); hw.Code != http.StatusOK || !strings.Contains(hw.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", hw.Code, hw.Body.String())
	}
}
