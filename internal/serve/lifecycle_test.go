package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/predictor"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
)

// TestChaosLifecycle is the acceptance drill for the per-request rule: a
// model-path error answers the degraded fallback on that request, is counted
// once, and changes nothing else. With every inference faulting (ServeRate 1)
// ten uncached requests in a row each answer the model_error fallback — no
// state trips after some number of them — while a plan cached before the
// fault keeps answering from the cache; /stats counts one model_error per
// degraded answer; and the first uncached request after the fault clears gets
// a model answer. Every predict answers 200.
func TestChaosLifecycle(t *testing.T) {
	srv, w := resilienceServer(t, Options{})
	insts := distinctInstances(t, srv, w, 3)
	hot, cold := insts[0], insts[1:]
	if resp := predictOK(t, srv, w, hot); resp.Fallback || resp.Cached {
		t.Fatalf("warm-up answer wrong: %+v", resp)
	}

	const faults = 10
	srv.SetFault(fault.New(fault.Plan{ServeRate: 1}, 7))
	for k := 0; k < faults; k++ {
		resp := predictOK(t, srv, w, cold[k%len(cold)])
		if !resp.Fallback || resp.Degraded != "model_error" || resp.PageCount != 0 {
			t.Fatalf("request %d: faulting model answered %+v, want the model_error fallback", k, resp)
		}
		if k == faults/2 {
			if resp := predictOK(t, srv, w, hot); !resp.Cached || resp.Fallback || resp.PageCount == 0 {
				t.Fatalf("cached plan during the fault answered %+v, want the cached pages", resp)
			}
		}
	}
	var stats statsResponse
	if err := json.NewDecoder(doRequest(t, srv, http.MethodGet, "/stats", nil).Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if n := stats.Events["model_error"]; n != faults {
		t.Fatalf("/stats events.model_error = %d, want one per degraded answer (%d)", n, faults)
	}

	srv.SetFault(nil)
	if resp := predictOK(t, srv, w, cold[0]); resp.Fallback || resp.Cached || resp.Workload == "" {
		t.Fatalf("first request after the fault cleared answered %+v, want a model answer", resp)
	}
	if n := srv.metrics.Events().Get(obs.ModelError); n != faults {
		t.Fatalf("model_error events %d after the clear, want still %d", n, faults)
	}
	for _, r := range srv.snapshot().Requests {
		if r.Endpoint == "predict" && r.Code != http.StatusOK {
			t.Errorf("%d predicts answered %d", r.Count, r.Code)
		}
	}
}

// headsWithoutCoverage re-encodes a saved snapshot with one coverage entry
// fewer than its trunk has heads and frames the document again (magic, length,
// payload, CRC-32: README's "Crash-safe snapshots"), so the envelope is intact
// and only the loader's consistency checks can refuse it. The mirror type
// names the one path it edits; gob drops the rest, which the refusal precedes.
func headsWithoutCoverage(t *testing.T, snapshot []byte) []byte {
	t.Helper()
	var doc struct {
		Workloads []struct{ Predictor predictor.State }
	}
	if err := gob.NewDecoder(bytes.NewReader(snapshot[16 : len(snapshot)-4])).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	p := &doc.Workloads[0].Predictor
	if len(p.ModelObjs) == 0 || len(p.ModelObjs) != len(p.Trunk.Heads) {
		t.Fatalf("fixture snapshot has %d coverage entries for %d heads", len(p.ModelObjs), len(p.Trunk.Heads))
	}
	p.ModelObjs = p.ModelObjs[1:]
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&doc); err != nil {
		t.Fatal(err)
	}
	out := append([]byte{}, snapshot[:8]...)
	out = binary.BigEndian.AppendUint64(out, uint64(payload.Len()))
	out = append(out, payload.Bytes()...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload.Bytes()))
}

// TestAdminReloadCorruptSnapshot pins the satellite contract: reloading from
// a truncated or zero-length snapshot, from one of another envelope version,
// or from one whose envelope is intact around an inconsistent document,
// answers a typed 422 envelope and the old generation keeps serving. Each
// bad file is written over the configured -snapshot path, the only file a
// reload opens, and the intact one is then written back.
func TestAdminReloadCorruptSnapshot(t *testing.T) {
	base, w := testServer(t)
	snap := filepath.Join(t.TempDir(), "model.snap")
	var buf bytes.Buffer
	if err := fixtureSys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// A well-formed snapshot of the previous envelope version (PYSNAP01: an
	// encoder per object, where this build reads one trunk per workload).
	v1 := append([]byte("PYSNAP01"), good[8:]...)

	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{SnapshotPath: snap})

	if err := srv.pool.Swap(bytes.NewReader(v1)); !errors.Is(err, corepythia.ErrSnapshotVersion) {
		t.Fatalf("Swap(PYSNAP01) = %v, want ErrSnapshotVersion", err)
	}
	for _, c := range []struct {
		name, reason string
		data         []byte
	}{
		{"truncated", "payload", good[:20]},
		{"empty", "truncated header", nil},
		{"pysnap01", "PYSNAP01", v1},
		// Length and CRC correct, head count and coverage list at odds:
		// refused below the envelope (this answered 500 reload_failed before).
		{"inconsistent", "coverage entries", headsWithoutCoverage(t, good)},
	} {
		if err := os.WriteFile(snap, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		rr := doRequest(t, srv, http.MethodPost, "/v1/admin/reload", nil)
		if rr.Code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d: %s", c.name, rr.Code, rr.Body.String())
		}
		env := decodeEnvelope(t, rr)
		if env.Error.Code != CodeSnapshotCorrupt || !strings.Contains(env.Error.Message, c.reason) {
			t.Fatalf("%s: envelope %+v, want code %q for reason %q", c.name, env.Error, CodeSnapshotCorrupt, c.reason)
		}
	}
	st := srv.pool.Status()
	if st.Generation != 1 || st.Swaps != 0 {
		t.Fatalf("corrupt reloads moved the generation: %+v", st)
	}
	if resp := predictOK(t, srv, w, 0); resp.Fallback || resp.Generation != 1 {
		t.Fatalf("old generation degraded after corrupt reloads: %+v", resp)
	}

	// The intact file, written back, reloads on the same server.
	if err := os.WriteFile(snap, good, 0o644); err != nil {
		t.Fatal(err)
	}
	rr := doRequest(t, srv, http.MethodPost, "/v1/admin/reload", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("good reload status %d: %s", rr.Code, rr.Body.String())
	}
	if st := srv.pool.Status(); st.Generation != 2 {
		t.Fatalf("good reload did not swap: %+v", st)
	}
}
