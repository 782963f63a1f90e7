package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/model"
	"github.com/pythia-db/pythia/internal/predictor"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/spec"
	"github.com/pythia-db/pythia/internal/workload"
)

// Training is the slow part of the fixture, so every test shares one server
// (handlers are concurrency-safe by design). fixtureSys is kept alongside the
// server so derived servers (resilience, fast path, pool) can wrap the same
// trained system without retraining.
var (
	fixtureOnce sync.Once
	fixtureSrv  *Server
	fixtureSys  *corepythia.System
	fixtureW    *workload.Workload
)

// inst returns the server's serving generation, for tests that reach into
// the model path (cache, queue, health state).
func (s *Server) inst() *generation { return s.pool.cur.Load() }

func mustServer(t testing.TB, db *catalog.Database, sys *corepythia.System, metrics *Metrics, opts Options) *Server {
	t.Helper()
	srv, err := New(db, sys, metrics, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func testServer(t testing.TB) (*Server, *workload.Workload) {
	t.Helper()
	fixtureOnce.Do(func() {
		g := dsb.NewGenerator(dsb.Config{ScaleFactor: 8, Seed: 7})
		w := g.Workload("t91", 20, 1)
		mcfg := model.DefaultConfig()
		mcfg.Dim = 16
		mcfg.Heads = 2
		mcfg.Layers = 1
		mcfg.DecoderHidden = 32
		mcfg.Epochs = 10
		metrics := NewMetrics(nil)
		cfg := corepythia.DefaultConfig()
		cfg.Predictor = predictor.Options{Model: mcfg}
		cfg.Replay.BufferPages = 1024
		cfg.Recorder = metrics.Events()
		sys := corepythia.New(g.DB(), cfg)
		sys.Train("t91", w.Instances)
		fixtureSrv = mustServer(t, g.DB(), sys, metrics, Options{})
		fixtureSys = sys
		fixtureW = w
	})
	return fixtureSrv, fixtureW
}

func specBody(t testing.TB, qs spec.QuerySpec) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := qs.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func doRequest(t *testing.T, srv *Server, method, path string, body io.Reader) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, body)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	return rr
}

func decodeEnvelope(t *testing.T, rr *httptest.ResponseRecorder) errorEnvelope {
	t.Helper()
	var env errorEnvelope
	if err := json.NewDecoder(rr.Body).Decode(&env); err != nil {
		t.Fatalf("error response is not a JSON envelope: %v (%q)", err, rr.Body.String())
	}
	return env
}

func TestPredictSuccess(t *testing.T) {
	srv, w := testServer(t)
	body := specBody(t, spec.FromQuery(w.Instances[0].Query))
	rr := doRequest(t, srv, http.MethodPost, "/v1/predict", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var resp predictResponse
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Fallback || resp.Workload != "t91" {
		t.Fatalf("query did not match its workload: %+v", resp)
	}
	if resp.PageCount == 0 || len(resp.Pages) != resp.PageCount {
		t.Fatalf("no pages predicted: %+v", resp)
	}
	if resp.Pages[0].Object == "" {
		t.Fatal("page object not resolved to a relation name")
	}
}

func TestPredictFallback(t *testing.T) {
	srv, _ := testServer(t)
	// inventory exists in the catalog (plans fine) but no model was trained
	// for it, so prediction falls back.
	rr := doRequest(t, srv, http.MethodPost, "/v1/predict",
		strings.NewReader(`{"fact":"inventory"}`))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var resp predictResponse
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Fallback || resp.PageCount != 0 {
		t.Fatalf("unmatched query did not fall back: %+v", resp)
	}
}

func TestPredictMalformedSpec(t *testing.T) {
	srv, _ := testServer(t)
	rr := doRequest(t, srv, http.MethodPost, "/v1/predict", strings.NewReader(`{"fact":`))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d", rr.Code)
	}
	if env := decodeEnvelope(t, rr); env.Error.Code != CodeInvalidSpec || env.Error.Message == "" {
		t.Fatalf("envelope wrong: %+v", env)
	}
}

func TestPredictUnknownRelation(t *testing.T) {
	srv, _ := testServer(t)
	rr := doRequest(t, srv, http.MethodPost, "/v1/predict",
		strings.NewReader(`{"fact":"no_such_relation"}`))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if env := decodeEnvelope(t, rr); env.Error.Code != CodePlanFailed ||
		!strings.Contains(env.Error.Message, "no_such_relation") {
		t.Fatalf("envelope wrong: %+v", env)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _ := testServer(t)
	cases := []struct{ method, path string }{
		{http.MethodGet, "/v1/predict"},
		{http.MethodGet, "/v1/explain"},
		{http.MethodPost, "/v1/healthz"},
		{http.MethodPost, "/metrics"},
		{http.MethodPost, "/stats"},
	}
	for _, c := range cases {
		rr := doRequest(t, srv, c.method, c.path, nil)
		if rr.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d", c.method, c.path, rr.Code)
			continue
		}
		if env := decodeEnvelope(t, rr); env.Error.Code != CodeMethodNotAllowed {
			t.Errorf("%s %s: envelope %+v", c.method, c.path, env)
		}
	}
}

// TestUnversionedPathsGone: the RFC 8594 aliases have expired; only /v1
// routes the model endpoints.
func TestUnversionedPathsGone(t *testing.T) {
	srv, w := testServer(t)
	rr := doRequest(t, srv, http.MethodPost, "/predict",
		specBody(t, spec.FromQuery(w.Instances[0].Query)))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("unversioned /predict status %d, want 404", rr.Code)
	}
}

func TestExplain(t *testing.T) {
	srv, w := testServer(t)
	rr := doRequest(t, srv, http.MethodPost, "/v1/explain",
		specBody(t, spec.FromQuery(w.Instances[0].Query)))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var resp predictResponse
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Plan == "" || len(resp.Tokens) == 0 {
		t.Fatalf("explain incomplete: %+v", resp)
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	rr := doRequest(t, srv, http.MethodGet, "/v1/healthz", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var resp struct {
		Status    string `json:"status"`
		Workloads []struct {
			Name   string `json:"name"`
			Params int    `json:"params"`
		} `json:"workloads"`
	}
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || len(resp.Workloads) != 1 || resp.Workloads[0].Name != "t91" {
		t.Fatalf("health payload wrong: %+v", resp)
	}
	if resp.Workloads[0].Params == 0 {
		t.Fatal("model inventory missing parameter count")
	}
}

func TestMetricsExposition(t *testing.T) {
	srv, w := testServer(t)
	// Ensure at least one request of each outcome is on the books.
	doRequest(t, srv, http.MethodPost, "/v1/predict",
		specBody(t, spec.FromQuery(w.Instances[0].Query)))
	doRequest(t, srv, http.MethodPost, "/v1/predict", strings.NewReader(`{"fact":`))

	rr := doRequest(t, srv, http.MethodGet, "/metrics", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	text := rr.Body.String()
	for _, want := range []string{
		`pythia_http_requests_total{endpoint="predict",code="200"}`,
		`pythia_http_requests_total{endpoint="predict",code="400"}`,
		`pythia_http_request_duration_seconds_bucket{endpoint="predict",le="+Inf"}`,
		`pythia_http_request_duration_seconds_count{endpoint="predict"}`,
		`pythia_predictions_total{outcome="matched"}`,
		`pythia_predicted_pages_total`,
		"pythia_workloads 1",
		"pythia_model_params",
		"pythia_uptime_seconds",
		"# TYPE pythia_http_requests_total counter",
		"# TYPE pythia_http_request_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	srv, w := testServer(t)
	doRequest(t, srv, http.MethodPost, "/v1/predict",
		specBody(t, spec.FromQuery(w.Instances[0].Query)))
	rr := doRequest(t, srv, http.MethodGet, "/stats", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var resp statsResponse
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Predictions == 0 || resp.PredictedPages == 0 || resp.AvgSetSize == 0 {
		t.Fatalf("prediction accounting empty: %+v", resp)
	}
	found := false
	for _, row := range resp.Requests {
		if row.Endpoint == "predict" && row.Code == http.StatusOK && row.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no predict/200 request row: %+v", resp.Requests)
	}
	if len(resp.Latency) == 0 {
		t.Fatal("no latency rows")
	}
	// The system recorder is wired, so workload-matching events show up.
	if resp.Events["workload_matched"] == 0 {
		t.Fatalf("no workload_matched events: %v", resp.Events)
	}
}
