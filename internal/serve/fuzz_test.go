package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzPostBodies sends arbitrary bytes to both JSON POST endpoints through
// the real Handler of the untrained golden server: decodePost, the spec
// decoder, the planner and the feedback resolver must never panic, answer
// only 200, 400, 404 or 413, and wrap every non-200 in the typed error
// envelope. The seed corpus is in testdata/fuzz/FuzzPostBodies.
func FuzzPostBodies(f *testing.F) {
	h := goldenServer(f).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/predict", "/v1/feedback"} {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch rr.Code {
			case http.StatusOK:
				continue
			case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("%s: status %d: %s", path, rr.Code, rr.Body.String())
			}
			var env errorEnvelope
			if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("%s: status %d without a typed envelope (%v): %q", path, rr.Code, err, rr.Body.String())
			}
		}
	})
}
