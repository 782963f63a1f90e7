package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/spec"
)

// feedbackBody marshals a feedback request.
func feedbackBody(t *testing.T, id string, pages []pageJSON) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(feedbackRequest{PredictionID: id, Pages: pages}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestFeedbackRoundTrip drives the online ground-truth loop end to end:
// predict, report the touched pages back, and watch the score land in the
// response, the hub's page sums, and the obs event stream.
func TestFeedbackRoundTrip(t *testing.T) {
	srv, w := testServer(t)

	rr := doRequest(t, srv, http.MethodPost, "/v1/predict",
		specBody(t, spec.FromQuery(w.Instances[1].Query)))
	if rr.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", rr.Code, rr.Body.String())
	}
	var pred predictResponse
	if err := json.NewDecoder(rr.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	if pred.PredictionID == "" {
		t.Fatal("predict response carries no prediction_id")
	}
	if pred.PageCount < 2 {
		t.Fatalf("fixture predicted only %d pages; the test needs a split", pred.PageCount)
	}

	// Ground truth: the executor touched half of what was prefetched and
	// nothing else, so precision = ½ (up to rounding) and recall = 1.
	touched := pred.Pages[:pred.PageCount/2]
	before := srv.metrics.events.Get(obs.QualityScored)
	rr = doRequest(t, srv, http.MethodPost, "/v1/feedback", feedbackBody(t, pred.PredictionID, touched))
	if rr.Code != http.StatusOK {
		t.Fatalf("feedback status %d: %s", rr.Code, rr.Body.String())
	}
	var fb feedbackResponse
	if err := json.NewDecoder(rr.Body).Decode(&fb); err != nil {
		t.Fatal(err)
	}
	if fb.Predicted != pred.PageCount || fb.Actual != len(touched) || fb.TruePositives != len(touched) {
		t.Fatalf("score sets wrong: %+v (predicted %d, touched %d)", fb, pred.PageCount, len(touched))
	}
	if fb.Recall != 1 {
		t.Fatalf("recall = %v, want 1 (every touched page was prefetched)", fb.Recall)
	}
	if want := float64(len(touched)) / float64(pred.PageCount); fb.Precision != want {
		t.Fatalf("precision = %v, want %v", fb.Precision, want)
	}
	if fb.Workload != "t91" {
		t.Fatalf("feedback not attributed: %+v", fb)
	}
	if got := srv.metrics.events.Get(obs.QualityScored); got != before+1 {
		t.Fatalf("QualityScored counter %d, want %d", got, before+1)
	}

	// The score is visible on /stats.
	rr = doRequest(t, srv, http.MethodGet, "/stats", nil)
	var st statsResponse
	if err := json.NewDecoder(rr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Quality.Scored == 0 || st.Quality.Precision == 0 {
		t.Fatalf("quality block empty after feedback: %+v", st.Quality)
	}

	// One feedback per prediction: the slot is consumed.
	rr = doRequest(t, srv, http.MethodPost, "/v1/feedback", feedbackBody(t, pred.PredictionID, touched))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("duplicate feedback status %d, want 404", rr.Code)
	}
	if env := decodeEnvelope(t, rr); env.Error.Code != CodeUnknownPrediction {
		t.Fatalf("duplicate feedback code %q", env.Error.Code)
	}
}

func TestFeedbackRejectsBadInput(t *testing.T) {
	srv, _ := testServer(t)
	cases := []struct {
		name string
		body string
		code int
		want string
	}{
		{"unknown id", `{"prediction_id":"p-999999999","pages":[]}`, http.StatusNotFound, CodeUnknownPrediction},
		{"malformed id", `{"prediction_id":"nope","pages":[]}`, http.StatusNotFound, CodeUnknownPrediction},
		{"malformed body", `{"prediction_id":`, http.StatusBadRequest, CodeInvalidSpec},
		{"unknown object", `{"prediction_id":"p-1","pages":[{"object":"no_such_relation","page":0}]}`, http.StatusBadRequest, CodeInvalidSpec},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := doRequest(t, srv, http.MethodPost, "/v1/feedback", strings.NewReader(tc.body))
			if rr.Code != tc.code {
				t.Fatalf("status %d, want %d: %s", rr.Code, tc.code, rr.Body.String())
			}
			if env := decodeEnvelope(t, rr); env.Error.Code != tc.want {
				t.Fatalf("code %q, want %q", env.Error.Code, tc.want)
			}
		})
	}
	if rr := doRequest(t, srv, http.MethodGet, "/v1/feedback", nil); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET feedback status %d, want 405", rr.Code)
	}
}

// TestServeDriftMonitorOnTrainingMix pins the serve-side drift wiring on an
// isolated server over the shared trained system: the training mix evaluates
// without alarming, /stats carries the baseline identity, and the drift block
// advances.
func TestServeDriftMonitorOnTrainingMix(t *testing.T) {
	_, w := testServer(t)
	srv := mustServer(t, fixtureSys.DB, fixtureSys, NewMetrics(nil), Options{})

	// 160 training-mix predictions cross the serve tier's 64-plan evaluation
	// cadence at least twice.
	for i := 0; i < 160; i++ {
		inst := w.Instances[i%len(w.Instances)]
		rr := doRequest(t, srv, http.MethodPost, "/v1/predict", specBody(t, spec.FromQuery(inst.Query)))
		if rr.Code != http.StatusOK {
			t.Fatalf("predict %d status %d: %s", i, rr.Code, rr.Body.String())
		}
	}
	rr := doRequest(t, srv, http.MethodGet, "/stats", nil)
	var st statsResponse
	if err := json.NewDecoder(rr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Drift.Evaluations < 2 {
		t.Fatalf("drift evaluations = %d, want >= 2 after 160 plans", st.Drift.Evaluations)
	}
	if st.Drift.State != "ok" {
		t.Fatalf("training mix drifted on serve: %+v", st.Drift)
	}
	id := fixtureSys.BaselineID()
	if id == nil {
		t.Fatal("fixture system has no baseline")
	}
	if st.Baseline == nil || st.Baseline.Hash != id.Hash {
		t.Fatalf("/stats baseline %+v, want hash %s", st.Baseline, id.Hash)
	}
	if gen := srv.pool.Status().Drift; gen.Evaluations != st.Drift.Evaluations || gen.State != st.Drift.State {
		t.Fatalf("generation drift %+v does not reconcile with /stats %+v", gen, st.Drift)
	}
}

// TestUnmatchedPlansFeedDrift: a run of plans no trained workload matches is
// exactly the shift drift detection exists to catch, so it must reach the
// drift monitor — the pool observes a plan before it matches it.
func TestUnmatchedPlansFeedDrift(t *testing.T) {
	testServer(t)
	srv := mustServer(t, fixtureSys.DB, fixtureSys, NewMetrics(nil), Options{})
	for i := 0; i < 2*serveDriftEvalEvery; i++ {
		rr := doRequest(t, srv, http.MethodPost, "/v1/predict", strings.NewReader(`{"fact":"inventory"}`))
		if rr.Code != http.StatusOK {
			t.Fatalf("unmatched predict %d status %d: %s", i, rr.Code, rr.Body.String())
		}
	}
	var st statsResponse
	if err := json.NewDecoder(doRequest(t, srv, http.MethodGet, "/stats", nil).Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Fallbacks != 2*serveDriftEvalEvery || st.Drift.Evaluations < 2 {
		t.Errorf("%d unmatched plans moved drift evaluations to %d, want >= 2", st.Fallbacks, st.Drift.Evaluations)
	}
}

// TestDriftObservedOncePerRequest: the generation's drift monitor sees each
// request's plan once, a degraded answer included. Every inference faults, so
// every request answers the model_error fallback. serveDriftEvalEvery−1 such
// requests must leave the monitor one plan short of its first evaluation, and
// the next request must complete it.
func TestDriftObservedOncePerRequest(t *testing.T) {
	srv, w := resilienceServer(t, Options{CacheEntries: -1})
	evaluations := func() uint64 { return srv.pool.Status().Drift.Evaluations }

	srv.SetFault(fault.New(fault.Plan{ServeRate: 1}, 7))
	degraded := map[string]int{}
	for i := 0; i < serveDriftEvalEvery-1; i++ {
		resp := predictOK(t, srv, w, 0)
		if !resp.Fallback {
			t.Fatalf("request %d: answered %+v under a faulting model, want the fallback", i, resp)
		}
		degraded[resp.Degraded]++
	}
	if degraded["model_error"] != serveDriftEvalEvery-1 {
		t.Fatalf("answers %v: want every one the model_error fallback", degraded)
	}
	if got := evaluations(); got != 0 {
		t.Fatalf("%d evaluations after %d requests, want 0: a request observed twice", got, serveDriftEvalEvery-1)
	}
	predictOK(t, srv, w, 0)
	if got := evaluations(); got != 1 {
		t.Fatalf("%d evaluations after %d requests, want 1", got, serveDriftEvalEvery)
	}
}
