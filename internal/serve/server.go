// Package serve implements pythia-serve's HTTP surface: the versioned /v1
// prediction API and the runtime observability endpoints (/metrics in
// Prometheus text format, /stats as JSON). The cmd/pythia-serve binary is a
// thin flag-parsing wrapper around this package, which keeps the whole
// surface testable with httptest.
//
// API contract:
//
//	POST /v1/predict          QuerySpec JSON → predicted pages + matched workload
//	POST /v1/explain          QuerySpec JSON → plan display + Algorithm 2 tokens
//	GET  /v1/healthz          liveness + model inventory
//	POST /v1/admin/reload     zero-downtime model swap from a snapshot file
//	GET  /metrics             Prometheus text exposition
//	GET  /stats               JSON statistics snapshot
//
// Every non-200 response carries a typed JSON error envelope:
//
//	{"error": {"code": "invalid_spec", "message": "..."}}
//
// Handlers honor the request context: a prediction for a client that has
// disconnected is abandoned rather than computed to completion.
//
// The server degrades rather than piles up: request bodies are capped (413),
// the model's bounded work queue is the one admission point — a predict it
// refuses is shed (503 + Retry-After) — inference runs under a per-request
// timeout (504), and a faulting model path answers the advisory fallback on
// that request and counts one model_error event; the next request tries the
// model again. All of it is visible on /metrics and /stats.
//
// The model tier behind the handlers is a Pool serving one generation — one
// trained system with its cache, queue and drift monitor — with snapshot-based
// zero-downtime model swap (POST /v1/admin/reload, or SIGHUP in
// pythia-serve).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/plan"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/quality"
	"github.com/pythia-db/pythia/internal/serialize"
	"github.com/pythia-db/pythia/internal/spec"
	"github.com/pythia-db/pythia/internal/storage"
)

// Error codes of the JSON error envelope.
const (
	CodeMethodNotAllowed  = "method_not_allowed"
	CodeInvalidSpec       = "invalid_spec"
	CodePlanFailed        = "plan_failed"
	CodeClientGone        = "client_disconnected"
	CodeTooLarge          = "body_too_large"
	CodeOverloaded        = "overloaded"
	CodeDeadline          = "deadline_exceeded"
	CodeModelError        = "model_error"
	CodeUnknownPrediction = "unknown_prediction"
)

// StatusClientClosedRequest mirrors nginx's 499: the client disconnected
// before the response was produced. Nothing is on the wire, but the status
// is visible in metrics.
const StatusClientClosedRequest = 499

// Server answers prediction requests over the model Pool. The Server owns
// the HTTP concerns (decoding, planning, timeouts, response rendering,
// observability); the Pool owns everything that touches a model, admission
// included.
type Server struct {
	db      *catalog.Database
	pool    *Pool
	metrics *Metrics
	opts    Options

	// tracker correlates served predictions with their /v1/feedback reports.
	tracker predTracker

	draining atomic.Bool
}

// New assembles a server over a database and its trained system. A nil
// metrics hub gets a fresh one (with its own event counters); pass the hub
// whose Events() you wired into the system's Config.Recorder to surface
// workload-matching and replay events on /metrics. Options are normalized
// (see Options.Normalize); invalid combinations are errors.
func New(db *catalog.Database, sys *corepythia.System, metrics *Metrics, opts Options) (*Server, error) {
	norm, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	if metrics == nil {
		metrics = NewMetrics(nil)
	}
	return &Server{db: db, pool: newPool(db, sys, metrics, norm), metrics: metrics, opts: norm}, nil
}

// Close is a no-op: the serving tier runs nothing in the background, so
// there is nothing to tear down. It stays because bench/ calls it.
func (s *Server) Close() {}

// Options returns the server's resolved effective options.
func (s *Server) Options() Options { return s.opts }

// Inferencer returns the model pool behind the server; bench/ calls it by
// this name.
func (s *Server) Inferencer() *Pool { return s.pool }

// SetDraining flips the server's draining flag: /v1/healthz answers 503 so
// load balancers stop routing here while in-flight requests finish (the
// graceful-shutdown handshake cmd/pythia-serve performs on SIGTERM).
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the server is draining.
func (s *Server) Draining() bool { return s.draining.Load() }

// Metrics returns the server's metrics hub.
func (s *Server) Metrics() *Metrics { return s.metrics }

// SetFault swaps the chaos injector on a live server (nil clears it).
// Production arms Options.Fault at construction; chaos drills (tests,
// cmd/pythia-load's -chaos-* flags) use this to clear or retarget injected
// faults mid-run so recovery is observable.
func (s *Server) SetFault(inj *fault.Injector) { s.pool.fgate.set(inj) }

// Handler builds the full HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for name, h := range map[string]http.HandlerFunc{
		"predict":      s.handlePredict,
		"explain":      s.handleExplain,
		"feedback":     s.handleFeedback,
		"healthz":      s.handleHealth,
		"admin/reload": s.handleReload,
	} {
		mux.HandleFunc("/v1/"+name, s.metrics.instrument(name, h))
	}
	mux.HandleFunc("/metrics", s.metrics.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("/stats", s.metrics.instrument("stats", s.handleStats))
	return mux
}

type errorEnvelope struct {
	Error errorInfo `json:"error"`
}

type errorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(errorEnvelope{Error: errorInfo{Code: code, Message: msg}}); err != nil {
		log.Printf("serve: encoding error response: %v", err)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("serve: encoding response: %v", err)
	}
}

type predictResponse struct {
	// PredictionID correlates this answer with a later POST /v1/feedback
	// report; it stays resolvable until trackSlots newer predictions have
	// been served.
	PredictionID string     `json:"prediction_id,omitempty"`
	Workload     string     `json:"workload"`
	Fallback     bool       `json:"fallback"`
	Cached       bool       `json:"cached,omitempty"`   // answered from the prediction cache (zero inference)
	Degraded     string     `json:"degraded,omitempty"` // why a matched plan got the fallback (model_error)
	Generation   uint64     `json:"generation"`         // model generation that answered
	Pages        []pageJSON `json:"pages"`
	PageCount    int        `json:"page_count"`
	ElapsedMS    float64    `json:"elapsed_ms"`
	Plan         string     `json:"plan,omitempty"`
	Tokens       []string   `json:"tokens,omitempty"`
}

type pageJSON struct {
	Object string `json:"object"`
	Page   uint32 `json:"page"`
}

// decodePost guards a JSON POST endpoint and decodes its body under the
// MaxBodyBytes cap, writing the typed error envelope on any failure: 405 for
// other methods (usage names what to post), 413 when the cap trips, 400
// invalid_spec for anything else dec rejects. dec reads the body to EOF, so
// the cap counts every byte posted and data after the document is refused.
func (s *Server) decodePost(w http.ResponseWriter, r *http.Request, usage string, dec func(io.Reader) error) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, usage)
		return false
	}
	err := dec(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	} else {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
	}
	return false
}

// decodeQuery parses and plans the posted QuerySpec, writing the typed
// error envelope on any failure.
func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request) (plan.Query, *plan.Node, bool) {
	var qs spec.QuerySpec
	if !s.decodePost(w, r, "POST a QuerySpec JSON document", func(body io.Reader) (err error) {
		qs, err = spec.Decode(body)
		return err
	}) {
		return plan.Query{}, nil, false
	}
	q, err := qs.ToQuery()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
		return plan.Query{}, nil, false
	}
	root, err := plan.NewPlanner(s.db).Plan(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodePlanFailed, err.Error())
		return plan.Query{}, nil, false
	}
	return q, root, true
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	q, root, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	start := time.Now()
	pred, err := s.pool.Predict(ctx, q, root)
	if err != nil {
		s.writePredictError(w, err)
		return
	}
	resp := predictResponse{
		Workload:   pred.Workload,
		Fallback:   pred.Fallback,
		Cached:     pred.Cached,
		Degraded:   pred.Degraded,
		Generation: pred.Generation,
	}
	s.writePages(&resp, pred.Pages)
	resp.PageCount = len(resp.Pages)
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	resp.PredictionID = s.tracker.note(pred.Workload, pred.Pages)
	s.metrics.observePrediction(resp.PageCount, resp.Fallback)
	writeJSON(w, resp)
}

// feedbackRequest is the POST /v1/feedback body: a prediction id from a
// predict response plus the pages the query's execution actually touched
// (same shape as the predict response's pages array).
type feedbackRequest struct {
	PredictionID string     `json:"prediction_id"`
	Pages        []pageJSON `json:"pages"`
}

// feedbackResponse echoes the score computed from one feedback report.
type feedbackResponse struct {
	PredictionID  string  `json:"prediction_id"`
	Workload      string  `json:"workload,omitempty"`
	Predicted     int     `json:"predicted"`
	Actual        int     `json:"actual"`
	TruePositives int     `json:"true_positives"`
	Precision     float64 `json:"precision"`
	Recall        float64 `json:"recall"`
	WastedRatio   float64 `json:"wasted_ratio"`
}

// handleFeedback scores a served prediction against the pages its query
// actually touched: the online ground-truth loop that makes serve-tier
// precision and recall measurable without replaying anything. The score
// lands in the hub's page sums and the obs event stream (obs.QualityScored).
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req feedbackRequest
	if !s.decodePost(w, r, "POST a feedback JSON document", func(body io.Reader) error {
		b, err := io.ReadAll(body)
		if err != nil {
			return err
		}
		return json.Unmarshal(b, &req)
	}) {
		return
	}
	actual := make([]storage.PageID, 0, len(req.Pages))
	for _, p := range req.Pages {
		obj := s.db.Registry.LookupName(p.Object)
		if obj == nil {
			writeError(w, http.StatusBadRequest, CodeInvalidSpec,
				fmt.Sprintf("unknown object %q in feedback pages", p.Object))
			return
		}
		actual = append(actual, storage.PageID{Object: obj.ID, Page: storage.PageNum(p.Page)})
	}
	rec, ok := s.tracker.take(req.PredictionID)
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownPrediction,
			fmt.Sprintf("prediction %q is unknown, already scored, or expired", req.PredictionID))
		return
	}
	sc := quality.ScoreSets(rec.pages, actual)
	s.metrics.observeScore(sc)
	s.metrics.Record(obs.Event{Kind: obs.QualityScored, Query: obs.NoQuery})
	writeJSON(w, feedbackResponse{
		PredictionID:  req.PredictionID,
		Workload:      rec.workload,
		Predicted:     sc.Predicted,
		Actual:        sc.Actual,
		TruePositives: sc.TruePos,
		Precision:     sc.Precision(),
		Recall:        sc.Recall(),
		WastedRatio:   sc.WastedRatio(),
	})
}

// writePredictError maps the Pool's errors onto the HTTP error contract: a
// full work queue → 503 (the server's only overloaded answer), expired
// budgets → 504, disconnected clients → 499.
func (s *Server) writePredictError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, CodeOverloaded,
			"work queue is full; retry shortly")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, CodeDeadline, "inference exceeded the request timeout")
	case errors.Is(err, context.Canceled):
		writeError(w, StatusClientClosedRequest, CodeClientGone, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, CodeModelError, err.Error())
	}
}

// writePages resolves object names and appends the page set to the response:
// one allocation for the slice, and a formatted id only for an object the
// registry does not know.
func (s *Server) writePages(resp *predictResponse, pages []storage.PageID) {
	resp.Pages = slices.Grow(resp.Pages, len(pages))
	for _, p := range pages {
		var name string
		if obj := s.db.Registry.Lookup(p.Object); obj != nil {
			name = obj.Name
		} else {
			name = fmt.Sprint(p.Object)
		}
		resp.Pages = append(resp.Pages, pageJSON{Object: name, Page: uint32(p.Page)})
	}
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	_, root, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	if err := r.Context().Err(); err != nil {
		writeError(w, StatusClientClosedRequest, CodeClientGone, err.Error())
		return
	}
	writeJSON(w, predictResponse{Plan: root.Display(),
		Tokens: serialize.Serialize(root, serialize.DefaultConfig())})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	type workloadInfo struct {
		Name   string `json:"name"`
		Models int    `json:"models"`
		Params int    `json:"params"`
	}
	var info []workloadInfo
	for _, tw := range s.pool.Workloads() {
		info = append(info, workloadInfo{
			Name: tw.Name, Models: len(tw.Pred.Models()), Params: tw.Pred.ParamCount(),
		})
	}
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		// Draining: answer 503 so load balancers stop routing here while
		// in-flight requests finish.
		status, code = "draining", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(map[string]any{
		"status":         status,
		"workloads":      info,
		"uptime_seconds": s.metrics.Uptime().Seconds(),
	}); err != nil {
		log.Printf("serve: encoding response: %v", err)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writePrometheus(w, s.snapshot())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, s.snapshot())
}
