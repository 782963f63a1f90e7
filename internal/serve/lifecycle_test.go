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
	"time"

	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/predictor"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
)

// TestChaosLifecycle is the acceptance drill: with every inference faulting
// (ServeRate 1) the model is quarantined, probed and — once the fault clears
// — re-admitted, and no request answers anything but 200: faults and the
// quarantine answer the degraded fallback. Deterministic: the rate is 1 and
// the probe clock is faked.
func TestChaosLifecycle(t *testing.T) {
	srv, w := resilienceServer(t, Options{
		CacheEntries:      -1, // every request exercises the model path
		QuarantineBackoff: time.Minute,
	})
	now := time.Unix(0, 0)
	srv.inst().health.now = func() time.Time { return now }
	insts := distinctInstances(t, srv, w, 3)
	ask := func(k int) predictResponse { return predictOK(t, srv, w, insts[k%len(insts)]) }

	srv.SetFault(fault.New(fault.Plan{ServeRate: 1}, 7))
	for round := 0; round < quarantineThreshold; round++ {
		if resp := ask(round); !resp.Fallback || resp.Degraded != "model_error" {
			t.Fatalf("round %d: faulting model answered %+v, want the model_error fallback", round, resp)
		}
	}
	var stats statsResponse
	if err := json.NewDecoder(doRequest(t, srv, http.MethodGet, "/stats", nil).Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.HealthState != "quarantined" || stats.Replicas[0].Health != "quarantined" {
		t.Fatalf("/stats health_state %q, row %q, want quarantined", stats.HealthState, stats.Replicas[0].Health)
	}

	// Quarantined, backoff unelapsed: no probe, no model path.
	for k := 0; k < len(insts); k++ {
		if resp := ask(k); !resp.Fallback || resp.Degraded != "no_healthy_replica" {
			t.Fatalf("quarantined model answered %+v, want the no_healthy_replica fallback", resp)
		}
	}
	if n := srv.metrics.Events().Get(obs.ReplicaProbe); n != 0 {
		t.Fatalf("%d probes admitted before the backoff elapsed", n)
	}

	// Fault clears and the backoff elapses: the next request is the probe,
	// answered by the model; quarantineProbes consecutive successes re-admit
	// it.
	srv.SetFault(nil)
	now = now.Add(time.Minute)
	for k := 0; k < quarantineProbes; k++ {
		if resp := ask(k); resp.Fallback || resp.Workload == "" {
			t.Fatalf("probe %d answered %+v, want a model answer", k, resp)
		}
	}
	if st := srv.inst().health.State(); st != "healthy" {
		t.Fatalf("after %d probe successes health is %s, want healthy", quarantineProbes, st)
	}

	// The full lifecycle left its event trail, and every predict answered 200.
	snap := srv.metrics.Events().Snapshot()
	if snap.Get(obs.ReplicaQuarantined) != 1 || snap.Get(obs.ReplicaProbe) != 1 || snap.Get(obs.ReplicaRecovered) != 1 {
		t.Fatalf("lifecycle events wrong: quarantined=%d probe=%d recovered=%d",
			snap.Get(obs.ReplicaQuarantined), snap.Get(obs.ReplicaProbe), snap.Get(obs.ReplicaRecovered))
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
// answers a typed 422 envelope and the old generation keeps serving.
func TestAdminReloadCorruptSnapshot(t *testing.T) {
	base, w := testServer(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.snap")
	var buf bytes.Buffer
	if err := fixtureSys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.snap")
	if err := os.WriteFile(truncated, buf.Bytes()[:20], 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.snap")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	// A well-formed snapshot of the previous envelope version (PYSNAP01: an
	// encoder per object, where this build reads one trunk per workload).
	oldFormat := filepath.Join(dir, "pysnap01.snap")
	v1 := append([]byte("PYSNAP01"), buf.Bytes()[8:]...)
	if err := os.WriteFile(oldFormat, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	// Length and CRC correct, head count and coverage list at odds: refused
	// below the envelope (this answered 500 reload_failed before).
	inconsistent := filepath.Join(dir, "inconsistent.snap")
	if err := os.WriteFile(inconsistent, headsWithoutCoverage(t, buf.Bytes()), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{SnapshotPath: good})

	if err := srv.pool.Swap(bytes.NewReader(v1)); !errors.Is(err, corepythia.ErrSnapshotVersion) {
		t.Fatalf("Swap(PYSNAP01) = %v, want ErrSnapshotVersion", err)
	}
	for path, reason := range map[string]string{
		truncated:    "payload",
		empty:        "truncated header",
		oldFormat:    "PYSNAP01",
		inconsistent: "coverage entries",
	} {
		rr := doRequest(t, srv, http.MethodPost, "/v1/admin/reload",
			strings.NewReader(`{"path":`+jsonQuote(path)+`}`))
		if rr.Code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d: %s", filepath.Base(path), rr.Code, rr.Body.String())
		}
		env := decodeEnvelope(t, rr)
		if env.Error.Code != CodeSnapshotCorrupt || !strings.Contains(env.Error.Message, reason) {
			t.Fatalf("%s: envelope %+v, want code %q for reason %q", filepath.Base(path), env.Error, CodeSnapshotCorrupt, reason)
		}
	}
	st := srv.pool.Status()
	if st.Generation != 1 || st.Swaps != 0 {
		t.Fatalf("corrupt reloads moved the generation: %+v", st)
	}
	if resp := predictOK(t, srv, w, 0); resp.Fallback || resp.Generation != 1 {
		t.Fatalf("old generation degraded after corrupt reloads: %+v", resp)
	}

	// The intact file still reloads on the same server.
	rr := doRequest(t, srv, http.MethodPost, "/v1/admin/reload", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("good reload status %d: %s", rr.Code, rr.Body.String())
	}
	if st := srv.pool.Status(); st.Generation != 2 {
		t.Fatalf("good reload did not swap: %+v", st)
	}
}
