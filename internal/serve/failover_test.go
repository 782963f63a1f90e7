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
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/predictor"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
)

// TestPoolReroutesAroundBlockedReplica: with one replica quarantined (inside
// its probe backoff), requests whose plans that replica owns reroute to ring
// successors — still 200, counted as failovers — and the successor's cache
// absorbs the shard, so repeats are hits. When the backoff elapses, probes go
// back to the owner, whose still-warm cache answers them and re-admits it.
func TestPoolReroutesAroundBlockedReplica(t *testing.T) {
	base, w := testServer(t)
	m := NewMetrics(nil)
	srv := mustServer(t, base.db, fixtureSys, m, Options{Replicas: 3})
	insts := distinctInstances(t, srv, w, 6)

	// Round 1 maps each plan to its owning replica (and warms owner caches).
	owner := map[int]int{}
	for _, i := range insts {
		owner[i] = predictOK(t, srv, w, i).Replica
	}
	target := owner[insts[0]]

	// Quarantine the target on a fake clock: inside the unelapsed backoff no
	// probe is due, so the pool must route around it.
	p := srv.pool
	ins := p.cur.Load().instances[target]
	now := time.Unix(0, 0)
	ins.health.now = func() time.Time { return now }
	for i := 0; i < quarantineThreshold; i++ {
		ins.health.failure()
	}
	if st := ins.health.State(); st != "quarantined" {
		t.Fatalf("health %s after %d failures, want quarantined", st, quarantineThreshold)
	}

	// Every plan still answers 200; the target's shard lands on successors.
	rerouted := map[int]int{}
	for _, i := range insts {
		resp := predictOK(t, srv, w, i)
		if resp.Fallback {
			t.Fatalf("instance %d: fallback while 2/3 replicas are healthy: %+v", i, resp)
		}
		if resp.Replica == target {
			t.Fatalf("instance %d: routed to the quarantined replica %d", i, target)
		}
		rerouted[i] = resp.Replica
	}
	if m.Events().Get(obs.ReplicaFailover) == 0 {
		t.Fatal("rerouting recorded no replica_failover events")
	}

	// Hit-rate recovery: the successor cached the rerouted shard, so repeats
	// are cache hits on the same successor.
	for _, i := range insts {
		if owner[i] != target {
			continue
		}
		again := predictOK(t, srv, w, i)
		if !again.Cached || again.Replica != rerouted[i] {
			t.Fatalf("instance %d: rerouted repeat cached=%v replica=%d, want hit on %d",
				i, again.Cached, again.Replica, rerouted[i])
		}
	}

	// Backoff elapses: the probe goes back to the owner, which answers from
	// its (still warm) cache; a cache hit counts as a probe success, so
	// quarantineProbes of them restore it.
	now = now.Add(srv.opts.QuarantineBackoff)
	for i := 0; i < quarantineProbes; i++ {
		resp := predictOK(t, srv, w, insts[0])
		if resp.Replica != target || !resp.Cached {
			t.Fatalf("probe %d: replica=%d cached=%v, want cached answer from owner %d",
				i, resp.Replica, resp.Cached, target)
		}
	}
	if st := ins.health.State(); st != "healthy" {
		t.Fatalf("health %s after %d cached probe answers, want healthy", st, quarantineProbes)
	}
}

// TestReplicaShedEnvelopeParity pins the shed contract: a request every
// candidate replica refuses answers 503, Retry-After and the typed JSON
// envelope — one requests_shed for the answer, one replica shed per refusal.
func TestReplicaShedEnvelopeParity(t *testing.T) {
	base, w := testServer(t)
	m := NewMetrics(nil)
	srv := mustServer(t, base.db, fixtureSys, m, Options{
		Replicas:     2,
		QueueDepth:   1,
		CacheEntries: -1,
	})

	// Fill every replica's work queue so admission sheds wherever the plan
	// routes.
	p := srv.pool
	for _, ins := range p.cur.Load().instances {
		ins.queue <- struct{}{}
	}
	rr := doRequest(t, srv, http.MethodPost, "/v1/predict", matchedBody(t, w))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("replica shed missing Retry-After")
	}
	if env := decodeEnvelope(t, rr); env.Error.Code != CodeOverloaded {
		t.Fatalf("envelope code %q, want %q", env.Error.Code, CodeOverloaded)
	}
	if m.sheds.Load() != 1 {
		t.Fatalf("sheds counter %d, want 1", m.sheds.Load())
	}
	var replicaSheds uint64
	for _, r := range srv.pool.Status().Replicas {
		replicaSheds += r.Shed
	}
	if replicaSheds != 2 {
		t.Fatalf("replica shed counters sum to %d, want 2 (the owner's refusal and its successor's)", replicaSheds)
	}

	// Draining the queues restores service on the same server.
	for _, ins := range p.cur.Load().instances {
		<-ins.queue
	}
	if rr := doRequest(t, srv, http.MethodPost, "/v1/predict", matchedBody(t, w)); rr.Code != http.StatusOK {
		t.Fatalf("post-shed status %d: %s", rr.Code, rr.Body.String())
	}
}

// TestPoolFailsOverSaturatedReplica: a saturated owner's shard answers 200
// from a ring successor instead of 503.
func TestPoolFailsOverSaturatedReplica(t *testing.T) {
	base, w := testServer(t)
	m := NewMetrics(nil)
	srv := mustServer(t, base.db, fixtureSys, m, Options{
		Replicas:     3,
		QueueDepth:   1,
		CacheEntries: -1,
	})

	first := predictOK(t, srv, w, 0)
	owner := first.Replica

	p := srv.pool
	p.cur.Load().instances[owner].queue <- struct{}{}
	resp := predictOK(t, srv, w, 0)
	if resp.Replica == owner || resp.Fallback {
		t.Fatalf("saturated owner %d still served (or fallback): %+v", owner, resp)
	}
	if m.Events().Get(obs.ReplicaFailover) == 0 {
		t.Fatal("failover not counted")
	}
	if shed := p.cur.Load().instances[owner].shed.Load(); shed != 1 {
		t.Fatalf("owner shed counter %d, want 1", shed)
	}
}

// TestChaosReplicaLifecycle is the acceptance drill: with a seeded replica
// fault plan killing one of three replicas' inferences, the pool quarantines
// it, fails its shard over to ring successors, re-admits it via backoff
// probes once the fault clears, and no request ever errors (0% < the 1%
// acceptance bound). Deterministic — ReplicaRate 1 targets exactly one
// replica and the probe clock is faked.
func TestChaosReplicaLifecycle(t *testing.T) {
	base, w := testServer(t)
	m := NewMetrics(nil)
	srv := mustServer(t, base.db, fixtureSys, m, Options{
		Replicas:          3,
		CacheEntries:      -1, // every request exercises the model path
		QuarantineBackoff: time.Minute,
	})
	insts := distinctInstances(t, srv, w, 6)

	// Healthy round: learn which replica owns the probe plan.
	target := predictOK(t, srv, w, insts[0]).Replica
	p := srv.pool
	ins := p.cur.Load().instances[target]
	now := time.Unix(0, 0)
	ins.health.now = func() time.Time { return now }

	// Kill the target's model path. Every request for its shard fails over:
	// the client sees 200 from a successor while the target racks up health
	// failures.
	srv.SetFault(fault.New(fault.Plan{ReplicaRate: 1, ReplicaIndex: target}, 7))
	for round := 0; round < quarantineThreshold; round++ {
		resp := predictOK(t, srv, w, insts[0])
		if resp.Fallback || resp.Replica == target {
			t.Fatalf("round %d: faulted replica %d answered (or fallback): %+v", round, target, resp)
		}
	}
	if st := ins.health.State(); st != "quarantined" {
		t.Fatalf("after %d faulted requests health is %s, want quarantined", quarantineThreshold, st)
	}

	// The topology and stats surfaces both show the quarantine.
	for _, r := range srv.pool.Status().Replicas {
		want := "healthy"
		if r.ID == target {
			want = "quarantined"
		}
		if r.Health != want {
			t.Fatalf("replica %d health %q, want %q", r.ID, r.Health, want)
		}
	}
	var stats statsResponse
	rr := doRequest(t, srv, http.MethodGet, "/stats", nil)
	if err := json.NewDecoder(rr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.HealthState != "quarantined" {
		t.Fatalf("/stats health_state %q, want quarantined", stats.HealthState)
	}
	if stats.Failovers == 0 {
		t.Fatal("/stats records no failovers")
	}

	// While quarantined (backoff unelapsed), the target is skipped outright —
	// no probe, no attempt, just a successor answering.
	if resp := predictOK(t, srv, w, insts[0]); resp.Replica == target || resp.Fallback {
		t.Fatalf("quarantined replica still serving: %+v", resp)
	}
	if snap := m.Events().Snapshot(); snap.Get(obs.ReplicaProbe) != 0 {
		t.Fatalf("%d probes admitted before the backoff elapsed", snap.Get(obs.ReplicaProbe))
	}

	// Fault clears and the backoff elapses: the next request is the probe,
	// served by the target itself; quarantineProbes consecutive successes
	// re-admit it.
	srv.SetFault(nil)
	now = now.Add(time.Minute)
	for i := 0; i < quarantineProbes; i++ {
		resp := predictOK(t, srv, w, insts[0])
		if resp.Replica != target || resp.Fallback {
			t.Fatalf("probe %d: served by %d, want recovering target %d", i, resp.Replica, target)
		}
	}
	if st := ins.health.State(); st != "healthy" {
		t.Fatalf("after %d probe successes health is %s, want healthy", quarantineProbes, st)
	}
	for _, r := range srv.pool.Status().Replicas {
		if r.Health != "healthy" {
			t.Fatalf("replica %d health %q after recovery", r.ID, r.Health)
		}
	}

	// The full lifecycle left its event trail: quarantine, probe, recovery,
	// and at least one failover per faulted round.
	snap := m.Events().Snapshot()
	if snap.Get(obs.ReplicaQuarantined) < 1 || snap.Get(obs.ReplicaProbe) < 1 ||
		snap.Get(obs.ReplicaRecovered) < 1 || snap.Get(obs.ReplicaFailover) < quarantineThreshold {
		t.Fatalf("lifecycle events wrong: quarantined=%d probe=%d recovered=%d failover=%d",
			snap.Get(obs.ReplicaQuarantined), snap.Get(obs.ReplicaProbe),
			snap.Get(obs.ReplicaRecovered), snap.Get(obs.ReplicaFailover))
	}
	// Every request in this drill answered 200 (predictInstance fails the
	// test otherwise): the end-to-end error rate is 0%, within the 1% bound.
}

// TestProbeReachesQuarantinedOwner: under default options, once a quarantined
// owner's backoff has elapsed the next request for its shard is the probe —
// served by the owner's model, not swallowed into a fallback — and
// quarantineProbes such answers return it to healthy.
func TestProbeReachesQuarantinedOwner(t *testing.T) {
	base, w := testServer(t)
	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{Replicas: 3, CacheEntries: -1})

	target := predictOK(t, srv, w, 0).Replica
	ins := srv.pool.cur.Load().instances[target]
	now := time.Unix(0, 0)
	ins.health.now = func() time.Time { return now }

	// The owner faults quarantineThreshold times; successors absorb each one.
	srv.SetFault(fault.New(fault.Plan{ReplicaRate: 1, ReplicaIndex: target}, 7))
	for i := 0; i < quarantineThreshold; i++ {
		if resp := predictOK(t, srv, w, 0); resp.Fallback || resp.Replica == target {
			t.Fatalf("fault %d: answered %+v, want a successor's model answer", i, resp)
		}
	}
	if st := ins.health.State(); st != "quarantined" {
		t.Fatalf("health %s after %d faults, want quarantined", st, quarantineThreshold)
	}

	srv.SetFault(nil)
	now = now.Add(srv.opts.QuarantineBackoff)
	for i := 0; i < quarantineProbes; i++ {
		if resp := predictOK(t, srv, w, 0); resp.Fallback || resp.Replica != target {
			t.Fatalf("probe %d: answered %+v, want the owner %d's model answer", i, resp, target)
		}
	}
	if st := ins.health.State(); st != "healthy" {
		t.Fatalf("health %s after %d probe answers, want healthy", st, quarantineProbes)
	}
}

// TestPoolDegradedWhenAllQuarantined: when every candidate replica is
// quarantined with no probe due, the pool answers the degraded fallback —
// prefetching is advisory, so degraded beats unavailable.
func TestPoolDegradedWhenAllQuarantined(t *testing.T) {
	base, w := testServer(t)
	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{
		Replicas:          2,
		QuarantineBackoff: time.Hour, // no probe within the test's lifetime
		CacheEntries:      -1,
	})

	p := srv.pool
	for _, ins := range p.cur.Load().instances {
		for i := 0; i < quarantineThreshold; i++ {
			ins.health.failure()
		}
	}
	rr := doRequest(t, srv, http.MethodPost, "/v1/predict", matchedBody(t, w))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var resp predictResponse
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Fallback || resp.Degraded != "no_healthy_replica" || resp.Replica != -1 {
		t.Fatalf("all-quarantined response %+v, want degraded fallback", resp)
	}
}

// TestSwapRollbackOnReplicaBuildFault pins the transactional-swap contract:
// an injected fault while building one standby replica fails the whole swap,
// drops the partial standby, and leaves the old generation serving
// untouched. Clearing the fault lets the same snapshot swap cleanly.
func TestSwapRollbackOnReplicaBuildFault(t *testing.T) {
	base, w := testServer(t)
	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{Replicas: 2})
	var snap bytes.Buffer
	if err := fixtureSys.Save(&snap); err != nil {
		t.Fatal(err)
	}

	srv.SetFault(fault.New(fault.Plan{ReplicaRate: 1, ReplicaIndex: 1}, 42))
	err := srv.pool.Swap(bytes.NewReader(snap.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "standby replica 1") {
		t.Fatalf("swap error = %v, want standby replica 1 build fault", err)
	}
	st := srv.pool.Status()
	if st.Generation != 1 || st.Swaps != 0 {
		t.Fatalf("failed swap moved the generation: %+v", st)
	}
	srv.SetFault(nil)
	if resp := predictOK(t, srv, w, 0); resp.Fallback || resp.Generation != 1 {
		t.Fatalf("old generation degraded after rolled-back swap: %+v", resp)
	}

	// Same snapshot, fault cleared: the swap completes.
	if err := srv.pool.Swap(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("post-rollback swap: %v", err)
	}
	if st := srv.pool.Status(); st.Generation != 2 || st.Swaps != 1 {
		t.Fatalf("post-rollback swap state: %+v", st)
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

	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{Replicas: 2, SnapshotPath: good})

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

// TestSuccessorProbeNotSpentOnOwnerAnswers: admission is lazy, so a
// quarantined ring successor whose probe is due keeps its probe token while
// the healthy owner answers — no ReplicaProbe event, backoff clock untouched —
// and spends it only on a request that actually fails over to it.
func TestSuccessorProbeNotSpentOnOwnerAnswers(t *testing.T) {
	base, w := testServer(t)
	m := NewMetrics(nil)
	srv := mustServer(t, base.db, fixtureSys, m, Options{Replicas: 3, CacheEntries: -1})

	q := w.Instances[0].Query
	tw := fixtureSys.Lookup(q)
	root, err := plan.NewPlanner(srv.db).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	gen := srv.pool.cur.Load()
	order := gen.ring.lookupN(fingerprint(tw.Name, tw.Pred.EncodePlan(root)), nil, 2)
	owner, succ := order[0], gen.instances[order[1]]

	now := time.Unix(0, 0)
	succ.health.now = func() time.Time { return now }
	for i := 0; i < quarantineThreshold; i++ {
		succ.health.failure()
	}
	quarantinedAt := succ.health.quarantinedAt
	now = now.Add(srv.opts.QuarantineBackoff) // the successor's probe is due

	for i := 0; i < 3; i++ {
		if resp := predictOK(t, srv, w, 0); resp.Fallback || resp.Replica != owner {
			t.Fatalf("request %d: answered %+v, want the healthy owner %d", i, resp, owner)
		}
	}
	if snap := m.Events().Snapshot(); snap.Get(obs.ReplicaProbe) != 0 {
		t.Fatalf("%d probes admitted on requests the owner answered", snap.Get(obs.ReplicaProbe))
	}
	if !succ.health.quarantinedAt.Equal(quarantinedAt) {
		t.Fatalf("successor backoff clock moved from %v to %v", quarantinedAt, succ.health.quarantinedAt)
	}

	// The owner faults: now the walk reaches the successor and probes it.
	srv.SetFault(fault.New(fault.Plan{ReplicaRate: 1, ReplicaIndex: owner}, 7))
	if resp := predictOK(t, srv, w, 0); resp.Fallback || resp.Replica != succ.id {
		t.Fatalf("failover answered %+v, want the probed successor %d", resp, succ.id)
	}
	if snap := m.Events().Snapshot(); snap.Get(obs.ReplicaProbe) != 1 {
		t.Fatalf("%d probes after the owner faulted, want 1", snap.Get(obs.ReplicaProbe))
	}
}
