package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/plan"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/spec"
)

// expectedPages computes the reference answer a system gives for one planned
// query — the pages a generation serving that system must answer.
func expectedPages(t *testing.T, srv *Server, sys *corepythia.System, q plan.Query, root *plan.Node) []pageJSON {
	t.Helper()
	tw := sys.Lookup(q)
	if tw == nil {
		t.Fatal("probe query did not match a trained workload")
	}
	var resp predictResponse
	srv.writePages(&resp, sys.LimitPrefetch(tw.Pred.Predict(root, tw.Pred.EncodePlan(root))))
	return resp.Pages
}

// TestSwapUnderLoad hammers the pool with concurrent predictions
// while the serving models are swapped to a differently trained generation.
// Run under -race this is the zero-downtime pin: every request answers 200,
// and every response's pages equal exactly the generation it reports — no
// request ever observes a torn or half-loaded model.
func TestSwapUnderLoad(t *testing.T) {
	base, w := testServer(t)

	// Generation 2: same catalog and config, trained on a different instance
	// subset so its weights (and typically its predictions) differ from the
	// fixture's generation 1.
	cfg := fixtureSys.Config()
	cfg.Recorder = nil
	sys2 := corepythia.New(base.db, cfg)
	sys2.Train("t91", fixtureW.Instances[:10])
	var snap2 bytes.Buffer
	if err := sys2.Save(&snap2); err != nil {
		t.Fatal(err)
	}

	// Cache disabled so every request runs real inference through the serving
	// generation's weights — the strongest torn-model probe. The queue is
	// deeper than the load is wide, so any non-200 is a real failure.
	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{
		CacheEntries: -1,
		QueueDepth:   1 << 10,
	})

	probes := distinctInstances(t, srv, w, 4)
	want := map[uint64][][]pageJSON{1: {}, 2: {}}
	bodies := make([][]byte, len(probes))
	pl := plan.NewPlanner(base.db)
	for k, i := range probes {
		q := w.Instances[i].Query
		root, err := pl.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		want[1] = append(want[1], expectedPages(t, srv, fixtureSys, q, root))
		want[2] = append(want[2], expectedPages(t, srv, sys2, q, root))
		bodies[k] = specBody(t, spec.FromQuery(q)).Bytes()
	}

	handler := srv.Handler()
	const workers, iters = 8, 24
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				k := (g + it) % len(bodies)
				req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(bodies[k]))
				rr := httptest.NewRecorder()
				handler.ServeHTTP(rr, req)
				if rr.Code != http.StatusOK {
					errs <- fmt.Errorf("worker %d: status %d: %s", g, rr.Code, rr.Body.String())
					return
				}
				var resp predictResponse
				if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
					errs <- err
					return
				}
				expected, known := want[resp.Generation]
				if !known {
					errs <- fmt.Errorf("worker %d: response from unknown generation %d", g, resp.Generation)
					return
				}
				if resp.Fallback || !reflect.DeepEqual(resp.Pages, expected[k]) {
					errs <- fmt.Errorf("worker %d: generation %d answered %v, want %v — torn model state",
						g, resp.Generation, resp.Pages, expected[k])
					return
				}
			}
		}(g)
	}

	// Mid-load: swap to generation 2. Swap must not fail and must not fail
	// any in-flight request.
	time.Sleep(10 * time.Millisecond)
	if err := srv.pool.Swap(bytes.NewReader(snap2.Bytes())); err != nil {
		t.Fatalf("swap under load: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := srv.pool.Status()
	if st.Generation != 2 || st.Swaps != 1 {
		t.Fatalf("after swap: generation=%d swaps=%d, want 2/1", st.Generation, st.Swaps)
	}
	// Post-swap requests serve generation 2 only.
	resp := predictOK(t, srv, w, probes[0])
	if resp.Generation != 2 || !reflect.DeepEqual(resp.Pages, want[2][0]) {
		t.Fatalf("post-swap response %+v not from generation 2", resp)
	}
}

// TestSwapRejectsBadSnapshot: a corrupt or empty snapshot must leave the old
// generation serving untouched.
func TestSwapRejectsBadSnapshot(t *testing.T) {
	base, w := testServer(t)
	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{})

	if err := srv.pool.Swap(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage snapshot did not error")
	}
	// An untrained system persists fine but must be refused for serving.
	empty := corepythia.New(base.db, fixtureSys.Config())
	var buf bytes.Buffer
	if err := empty.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := srv.pool.Swap(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "no trained workloads") {
		t.Fatalf("empty snapshot error = %v", err)
	}
	st := srv.pool.Status()
	if st.Generation != 1 || st.Swaps != 0 {
		t.Fatalf("failed swaps moved the generation: %+v", st)
	}
	if resp := predictOK(t, srv, w, 0); resp.Fallback {
		t.Fatalf("server degraded after rejected swaps: %+v", resp)
	}
}

// TestAdminReloadHTTP exercises the versioned admin surface end to end:
// reload from the configured snapshot, reload from an explicit path, typed
// errors, and method guards.
func TestAdminReloadHTTP(t *testing.T) {
	base, w := testServer(t)
	snap := filepath.Join(t.TempDir(), "model.snap")
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := fixtureSys.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{SnapshotPath: snap})

	// Empty body → reload from the configured path.
	rr := doRequest(t, srv, http.MethodPost, "/v1/admin/reload", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("reload status %d: %s", rr.Code, rr.Body.String())
	}
	var rel reloadResponse
	if err := json.NewDecoder(rr.Body).Decode(&rel); err != nil {
		t.Fatal(err)
	}
	if rel.Status != "ok" || rel.Generation != 2 || rel.Swaps != 1 || rel.Path != snap {
		t.Fatalf("reload response wrong: %+v", rel)
	}

	// A second reload → another swap.
	rr = doRequest(t, srv, http.MethodPost, "/v1/admin/reload", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("second reload status %d: %s", rr.Code, rr.Body.String())
	}

	// /stats reflects the swaps.
	var st statsResponse
	if err := json.NewDecoder(doRequest(t, srv, http.MethodGet, "/stats", nil).Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Generation != 3 || st.Swaps != 2 {
		t.Fatalf("/stats after two swaps: generation %d, swaps %d", st.Generation, st.Swaps)
	}
	// Requests still answer after two live swaps.
	if resp := predictOK(t, srv, w, 0); resp.Generation != 3 {
		t.Fatalf("serving generation %d, want 3", resp.Generation)
	}

	// Method guards.
	if rr := doRequest(t, srv, http.MethodGet, "/v1/admin/reload", nil); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload status %d", rr.Code)
	}
	// Malformed body → typed 400.
	rr = doRequest(t, srv, http.MethodPost, "/v1/admin/reload", strings.NewReader(`{"path":`))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad body status %d", rr.Code)
	}
	if env := decodeEnvelope(t, rr); env.Error.Code != CodeInvalidSpec {
		t.Fatalf("bad body envelope: %+v", env)
	}
	// A configured snapshot that does not exist → typed 500.
	missing := mustServer(t, base.db, fixtureSys, NewMetrics(nil),
		Options{SnapshotPath: filepath.Join(t.TempDir(), "missing.snap")})
	rr = doRequest(t, missing, http.MethodPost, "/v1/admin/reload", nil)
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("missing file status %d: %s", rr.Code, rr.Body.String())
	}
	if env := decodeEnvelope(t, rr); env.Error.Code != CodeReloadFailed {
		t.Fatalf("missing file envelope: %+v", env)
	}

	// A server with no snapshot configured refuses pathless reloads with the
	// typed 400.
	bare := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{})
	rr = doRequest(t, bare, http.MethodPost, "/v1/admin/reload", nil)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("no-snapshot status %d: %s", rr.Code, rr.Body.String())
	}
	if env := decodeEnvelope(t, rr); env.Error.Code != CodeNoSnapshot {
		t.Fatalf("no-snapshot envelope: %+v", env)
	}
}

// TestReloadRefusesClientPath: a reload names no file. A body carrying a
// path — to a readable file that is no snapshot, or to a valid snapshot other
// than the configured one — answers 400 invalid_spec without the file being
// opened: none of its bytes come back, and the generation does not move.
func TestReloadRefusesClientPath(t *testing.T) {
	base, _ := testServer(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "model.snap")
	if err := fixtureSys.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "other.snap")
	if err := fixtureSys.SaveFile(other); err != nil {
		t.Fatal(err)
	}
	secret := filepath.Join(dir, "secret.txt")
	if err := os.WriteFile(secret, []byte("SECRET-TOKEN-0123456789"), 0o600); err != nil {
		t.Fatal(err)
	}
	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{SnapshotPath: snap})

	for _, path := range []string{secret, other} {
		body, err := json.Marshal(map[string]string{"path": path})
		if err != nil {
			t.Fatal(err)
		}
		rr := doRequest(t, srv, http.MethodPost, "/v1/admin/reload", bytes.NewReader(body))
		if rr.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", filepath.Base(path), rr.Code, rr.Body.String())
		}
		if strings.Contains(rr.Body.String(), "SECRET") {
			t.Fatalf("%s: answer echoes the file: %s", filepath.Base(path), rr.Body.String())
		}
		if env := decodeEnvelope(t, rr); env.Error.Code != CodeInvalidSpec {
			t.Fatalf("%s: envelope %+v, want %s", filepath.Base(path), env.Error, CodeInvalidSpec)
		}
		if st := srv.pool.Status(); st.Generation != 1 || st.Swaps != 0 {
			t.Fatalf("%s: a refused reload moved the generation: %+v", filepath.Base(path), st)
		}
	}
}

// TestWritePredictError pins the mapping from the Pool's sentinel errors to
// HTTP statuses and envelope codes, wrapped or bare; only saturation sheds.
func TestWritePredictError(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{ErrSaturated, http.StatusServiceUnavailable, CodeOverloaded},
		{fmt.Errorf("queue: %w", ErrSaturated), http.StatusServiceUnavailable, CodeOverloaded},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, CodeDeadline},
		{context.Canceled, StatusClientClosedRequest, CodeClientGone},
		{errors.New("anything else"), http.StatusInternalServerError, CodeModelError},
	}
	for _, c := range cases {
		srv := &Server{metrics: NewMetrics(nil)}
		rr := httptest.NewRecorder()
		srv.metrics.instrument("predict", func(w http.ResponseWriter, _ *http.Request) {
			srv.writePredictError(w, c.err)
		})(rr, httptest.NewRequest(http.MethodPost, "/v1/predict", nil))
		if rr.Code != c.status {
			t.Errorf("%v: status %d, want %d", c.err, rr.Code, c.status)
			continue
		}
		if env := decodeEnvelope(t, rr); env.Error.Code != c.code {
			t.Errorf("%v: envelope code %q, want %q", c.err, env.Error.Code, c.code)
		}
		wantRetry, wantSheds := "", uint64(0)
		if c.status == http.StatusServiceUnavailable {
			wantRetry, wantSheds = "1", 1
		}
		if got := rr.Header().Get("Retry-After"); got != wantRetry {
			t.Errorf("%v: Retry-After %q, want %q", c.err, got, wantRetry)
		}
		if got := srv.metrics.requestCount("predict", http.StatusServiceUnavailable); got != wantSheds {
			t.Errorf("%v: {predict, 503} row %d, want %d", c.err, got, wantSheds)
		}
	}
}

// TestOptionsNormalize pins the six fields' defaults, the one off-switch
// (CacheEntries), the rejected negatives, and idempotence.
func TestOptionsNormalize(t *testing.T) {
	norm, err := Options{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if want := (Options{RequestTimeout: 5 * time.Second, MaxBodyBytes: 1 << 20, CacheEntries: 4096,
		QueueDepth: 32}); norm != want {
		t.Fatalf("defaults %+v, want %+v", norm, want)
	}
	for entries, want := range map[int]int{-1: -1, 0: 4096, 7: 7} {
		once, err := Options{CacheEntries: entries}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if once.CacheEntries != want {
			t.Errorf("CacheEntries %d normalized to %d, want %d", entries, once.CacheEntries, want)
		}
		if twice, err := once.Normalize(); err != nil || twice != once {
			t.Errorf("CacheEntries %d: Normalize is not idempotent: %+v then %+v (%v)", entries, once, twice, err)
		}
	}

	invalid := []Options{
		{RequestTimeout: -time.Second},
		{MaxBodyBytes: -1},
		{QueueDepth: -1},
	}
	for i, o := range invalid {
		if _, err := o.Normalize(); err == nil {
			t.Errorf("case %d: %+v normalized without error", i, o)
		}
	}
	// New surfaces the validation error instead of building a broken server.
	base, _ := testServer(t)
	if _, err := New(base.db, fixtureSys, nil, Options{QueueDepth: -3}); err == nil {
		t.Fatal("New accepted invalid options")
	}
}
