package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

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
// response, the server-wide window, the serving replica's window, and the
// obs event stream.
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
	if fb.Workload != "t91" || fb.Replica != 0 {
		t.Fatalf("feedback not attributed: %+v", fb)
	}
	if got := srv.metrics.events.Get(obs.QualityScored); got != before+1 {
		t.Fatalf("QualityScored counter %d, want %d", got, before+1)
	}

	// The score is visible on /stats: the aggregate block and the serving
	// replica's row.
	rr = doRequest(t, srv, http.MethodGet, "/stats", nil)
	var st statsResponse
	if err := json.NewDecoder(rr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Quality.Scored == 0 || st.Quality.Window == 0 || st.Quality.Precision == 0 {
		t.Fatalf("aggregate quality block empty after feedback: %+v", st.Quality)
	}
	if len(st.Replicas) == 0 || st.Replicas[0].QualityScored == 0 {
		t.Fatalf("replica quality row empty after feedback: %+v", st.Replicas)
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
// without alarming, /stats carries the baseline identity, and the aggregate
// drift block advances.
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
	if st.Drift.State != "ok" || st.Drift.Alarms != 0 || st.Drift.Warnings != 0 {
		t.Fatalf("training mix drifted on serve: %+v", st.Drift)
	}
	id := fixtureSys.BaselineID()
	if id == nil {
		t.Fatal("fixture system has no baseline")
	}
	if st.Baseline == nil || st.Baseline.Hash != id.Hash {
		t.Fatalf("/stats baseline %+v, want hash %s", st.Baseline, id.Hash)
	}
	if len(st.Replicas) != 1 || st.Replicas[0].Drift.Evaluations != st.Drift.Evaluations {
		t.Fatalf("replica drift row does not reconcile with the aggregate: %+v", st.Replicas)
	}
}

// TestUnmatchedPlansFeedDrift: a run of plans no trained workload matches is
// exactly the shift drift detection exists to catch, so it must reach a drift
// monitor at any replica count — the pool answers those plans before routing.
func TestUnmatchedPlansFeedDrift(t *testing.T) {
	testServer(t)
	for _, replicas := range []int{1, 2} {
		srv := mustServer(t, fixtureSys.DB, fixtureSys, NewMetrics(nil), Options{Replicas: replicas})
		for i := 0; i < 2*serveDriftEvalEvery; i++ {
			rr := doRequest(t, srv, http.MethodPost, "/v1/predict", strings.NewReader(`{"fact":"inventory"}`))
			if rr.Code != http.StatusOK {
				t.Fatalf("replicas=%d: unmatched predict %d status %d: %s", replicas, i, rr.Code, rr.Body.String())
			}
		}
		var st statsResponse
		if err := json.NewDecoder(doRequest(t, srv, http.MethodGet, "/stats", nil).Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Fallbacks != 2*serveDriftEvalEvery || st.Drift.Evaluations < 2 {
			t.Errorf("replicas=%d: %d unmatched plans moved drift evaluations to %d, want >= 2",
				replicas, st.Fallbacks, st.Drift.Evaluations)
		}
	}
}

// TestUptimeMonotonic pins the /stats monotonic-uptime guarantee: rewinding
// the wall clock drops Uptime but never UptimeMonotonic.
func TestUptimeMonotonic(t *testing.T) {
	m := NewMetrics(nil)
	now := time.Unix(1_700_000_000, 0)
	m.setClock(func() time.Time { return now })

	now = now.Add(10 * time.Second)
	if got := m.UptimeMonotonic(); got != 10*time.Second {
		t.Fatalf("monotonic uptime %v, want 10s", got)
	}
	// Wall clock steps back 4s (NTP correction): plain uptime follows, the
	// monotonic reading holds its high-water mark.
	now = now.Add(-4 * time.Second)
	if got := m.Uptime(); got != 6*time.Second {
		t.Fatalf("uptime %v, want 6s", got)
	}
	if got := m.UptimeMonotonic(); got != 10*time.Second {
		t.Fatalf("monotonic uptime dropped to %v after clock step", got)
	}
	// The clock catches up past the mark: monotonic resumes tracking.
	now = now.Add(10 * time.Second)
	if got := m.UptimeMonotonic(); got != 16*time.Second {
		t.Fatalf("monotonic uptime %v, want 16s", got)
	}
}
