package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/spec"
	"github.com/pythia-db/pythia/internal/workload"
)

// resilienceServer builds a server sharing the fixture's trained system but
// with its own metrics and options, so resilience tests can fault the model
// and shed load without perturbing the shared fixture's counters.
func resilienceServer(t *testing.T, opts Options) (*Server, *workload.Workload) {
	t.Helper()
	base, w := testServer(t)
	return mustServer(t, base.db, fixtureSys, NewMetrics(nil), opts), w
}

func matchedBody(t *testing.T, w *workload.Workload) *strings.Reader {
	t.Helper()
	b := specBody(t, spec.FromQuery(w.Instances[0].Query))
	return strings.NewReader(b.String())
}

func TestBodyCapAnswers413(t *testing.T) {
	// The configured snapshot does not exist: a reload that opened it would
	// answer 500, so every reload answer below is decided by its body alone.
	srv, _ := resilienceServer(t, Options{MaxBodyBytes: 64, SnapshotPath: filepath.Join(t.TempDir(), "model.snap")})
	for path, body := range map[string]string{
		"/v1/predict":      `{"fact":"` + strings.Repeat("x", 200) + `"}`,
		"/v1/admin/reload": strings.Repeat("x", 200),
	} {
		rr := doRequest(t, srv, http.MethodPost, path, strings.NewReader(body))
		if rr.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d: %s", path, rr.Code, rr.Body.String())
		}
		if env := decodeEnvelope(t, rr); env.Error.Code != CodeTooLarge {
			t.Fatalf("%s: envelope wrong: %+v", path, env)
		}
	}
	// A small valid body still works on the same server.
	rr := doRequest(t, srv, http.MethodPost, "/v1/predict", strings.NewReader(`{"fact":"inventory"}`))
	if rr.Code != http.StatusOK {
		t.Fatalf("small body status %d: %s", rr.Code, rr.Body.String())
	}
	// The cap counts the whole body, not just its first document: a complete
	// document padded past the cap answers 413 on every POST endpoint, and
	// data after the document under the cap, a repeated QuerySpec field, or
	// any reload body under the cap, 400.
	for _, c := range []struct {
		path, body string
		status     int
		code       string
	}{
		{"/v1/predict", `{"fact":"inventory"}` + strings.Repeat(" ", 200), http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"/v1/predict", `{"fact":"inventory"}` + strings.Repeat("x", 200), http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"/v1/feedback", `{"prediction_id":"p"}` + strings.Repeat(" ", 200), http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"/v1/admin/reload", `{}` + strings.Repeat(" ", 200), http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"/v1/admin/reload", `{}`, http.StatusBadRequest, CodeInvalidSpec},
		{"/v1/predict", `{"fact":"inventory"} {"x":1} garbage`, http.StatusBadRequest, CodeInvalidSpec},
		{"/v1/feedback", `{"prediction_id":"p"} {"x":1} garbage`, http.StatusBadRequest, CodeInvalidSpec},
		{"/v1/predict", `{"fact":"inventory","fact":"inventory"}`, http.StatusBadRequest, CodeInvalidSpec},
	} {
		rr := doRequest(t, srv, http.MethodPost, c.path, strings.NewReader(c.body))
		if rr.Code != c.status {
			t.Fatalf("%s %.40q: status %d, want %d: %s", c.path, c.body, rr.Code, c.status, rr.Body.String())
		}
		if env := decodeEnvelope(t, rr); env.Error.Code != c.code {
			t.Fatalf("%s %.40q: envelope %+v, want code %s", c.path, c.body, env, c.code)
		}
	}
}

// TestLoadSheddingAnswers503: the work queue is the one admission point. With
// it full a predict is shed — 503, Retry-After and the typed envelope, one
// requests_shed per refusal; an explain, which touches no model, is not gated
// at all.
func TestLoadSheddingAnswers503(t *testing.T) {
	srv, w := resilienceServer(t, Options{QueueDepth: 1})
	// Hold the queue's only slot, then observe the next predict shed.
	srv.inst().queue <- struct{}{}
	rr := doRequest(t, srv, http.MethodPost, "/v1/predict", matchedBody(t, w))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if env := decodeEnvelope(t, rr); env.Error.Code != CodeOverloaded {
		t.Fatalf("envelope wrong: %+v", env)
	}
	if rr := doRequest(t, srv, http.MethodPost, "/v1/explain", matchedBody(t, w)); rr.Code != http.StatusOK {
		t.Fatalf("explain with the queue full: status %d: %s", rr.Code, rr.Body.String())
	}
	if n := srv.metrics.requestCount("predict", http.StatusServiceUnavailable); n != 1 {
		t.Fatalf("{predict, 503} row %d, want 1", n)
	}
	// Releasing the slot restores service.
	<-srv.inst().queue
	rr = doRequest(t, srv, http.MethodPost, "/v1/predict", matchedBody(t, w))
	if rr.Code != http.StatusOK {
		t.Fatalf("post-shed status %d: %s", rr.Code, rr.Body.String())
	}
}

func TestInferenceTimeoutAnswers504(t *testing.T) {
	srv, w := resilienceServer(t, Options{RequestTimeout: time.Nanosecond})
	rr := doRequest(t, srv, http.MethodPost, "/v1/predict", matchedBody(t, w))
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if env := decodeEnvelope(t, rr); env.Error.Code != CodeDeadline {
		t.Fatalf("envelope wrong: %+v", env)
	}
	if n := srv.metrics.requestCount("predict", http.StatusGatewayTimeout); n != 1 {
		t.Fatalf("{predict, 504} row %d, want 1", n)
	}
}

// The failure ladder has one rung: every request whose inference faults
// answers the model_error fallback, however many came before it, so an
// uncached plan never answers anything else during the fault while a cached
// plan keeps answering from the cache; once the fault clears the same plan
// gets a model answer. The /metrics exposition counts each degraded answer
// under pythia_events_total and carries no replica health gauge, and no rung
// sheds or times out.
func TestFailureLadder(t *testing.T) {
	srv, w := resilienceServer(t, Options{})
	insts := distinctInstances(t, srv, w, 2)
	hot, cold := insts[0], insts[1]
	if resp := predictOK(t, srv, w, hot); resp.Fallback || resp.Cached {
		t.Fatalf("warm-up answer wrong: %+v", resp)
	}

	// Twice the old quarantine threshold of five: nothing trips on the way.
	const faults = 10
	srv.SetFault(fault.New(fault.Plan{ServeRate: 1}, 1))
	for i := 0; i < faults; i++ {
		resp := predictOK(t, srv, w, cold)
		if !resp.Fallback || resp.Degraded != "model_error" || resp.PageCount != 0 {
			t.Fatalf("fault %d: uncached plan answered %+v, want the model_error fallback", i, resp)
		}
	}
	if resp := predictOK(t, srv, w, hot); !resp.Cached || resp.Fallback || resp.PageCount == 0 {
		t.Fatalf("cached plan during the fault answered %+v, want the cached pages", resp)
	}

	srv.SetFault(nil)
	if resp := predictOK(t, srv, w, cold); resp.Fallback || resp.Cached {
		t.Fatalf("first answer after the clear was %+v, want a model answer", resp)
	}
	if resp := predictOK(t, srv, w, cold); !resp.Cached || resp.Fallback {
		t.Fatalf("repeat after the clear answered %+v, want a cache hit", resp)
	}

	text := doRequest(t, srv, http.MethodGet, "/metrics", nil).Body.String()
	for _, want := range []string{
		fmt.Sprintf("pythia_events_total{kind=%q} %d", obs.ModelError.String(), faults),
		"pythia_requests_shed_total 0",
		"pythia_inference_timeouts_total 0",
		"pythia_draining 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(text, "pythia_replica_health") {
		t.Error("exposition still carries the replica health gauge")
	}
}

func TestDrainingHealthz(t *testing.T) {
	srv, _ := resilienceServer(t, Options{})
	rr := doRequest(t, srv, http.MethodGet, "/v1/healthz", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("healthy status %d", rr.Code)
	}
	srv.SetDraining(true)
	rr = doRequest(t, srv, http.MethodGet, "/v1/healthz", nil)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d", rr.Code)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(rr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "draining" {
		t.Fatalf("status %q, want draining", health.Status)
	}
	var stats statsResponse
	rr = doRequest(t, srv, http.MethodGet, "/stats", nil)
	if err := json.NewDecoder(rr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Draining {
		t.Fatalf("stats resilience fields wrong: %+v", stats)
	}
	srv.SetDraining(false)
	if rr := doRequest(t, srv, http.MethodGet, "/v1/healthz", nil); rr.Code != http.StatusOK {
		t.Fatalf("undrained status %d", rr.Code)
	}
}
