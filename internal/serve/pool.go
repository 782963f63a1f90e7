package serve

// The replica pool is the serving tier's one model tier. One trained
// pythia.System is snapshotted (pythia.System.Save) and decoded into N
// independent clones, each wrapped in an instance with its own prediction
// cache, health tracker, and bounded work queue; N=1 is a
// one-node ring over the original system, no snapshot taken. A request is
// matched once on the routing replica, fingerprinted once by its encoded
// plan (the key both the ring and the prediction cache use), and routed
// through a consistent-hash ring to the replica that owns that fingerprint.
//
// Why route by plan hash instead of round-robin: templated workloads
// collapse to few distinct plans, so replica-affine routing means each
// distinct plan's cached prediction lives on exactly one replica — the
// pool's aggregate cache holds N shards of the hot set, not N copies of it —
// and a cache miss for a given plan always recomputes on the replica that
// will field that plan's future hits. Forward passes run concurrently on
// one replica's trunk as well as across replicas, so replicas add cache
// shards, failover targets and fault isolation rather than cores.
//
// A model swap builds a complete standby generation (N fresh clones from the
// new snapshot), warms it on recently served plans, and swings one atomic
// pointer. Requests in flight keep the generation pointer they loaded, so
// every request runs against exactly one coherent generation — there is no
// torn state to observe — and the superseded generation is collected once
// its last request returns.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/plan"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/quality"
)

// generation is one immutable serving configuration: N instances, the ring
// that routes over them, and the generation's one drift monitor. Predict loads
// it once and uses only it, so a concurrent Swap can never hand a request
// instances from two generations.
type generation struct {
	id        uint64
	instances []*instance
	ring      *hashRing

	// drift compares the live plan stream against the training baseline the
	// generation's snapshot carries; every replica clones that one snapshot,
	// so there is one baseline and one monitor, not one per replica. Nil when
	// the snapshot has no baseline (drift detection off). driftMu serializes
	// it.
	driftMu sync.Mutex
	drift   *quality.Monitor
}

// serveDriftEvalEvery slows the drift detector's evaluation cadence on the
// serve tier relative to the replay default. A sustained load run evaluates
// thousands of times where a replay evaluates a handful, so the detector's
// per-evaluation false-positive probability gets multiplied by a factor the
// replay tier never sees; a longer cadence both shrinks that factor and
// quadruples the decayed live sample each PSI reading is computed from.
const serveDriftEvalEvery = 64

func newGeneration(id uint64, instances []*instance, ring *hashRing) *generation {
	return &generation{id: id, instances: instances, ring: ring,
		drift: quality.NewMonitor(instances[0].sys.Baseline(), quality.Options{EvalEvery: serveDriftEvalEvery})}
}

// observeDrift folds one request's plan into the generation's live profile
// and records the evaluation and any state transition. Pool.Predict calls it
// once per request before matching: unmatched plans are exactly the shift
// drift detection exists to catch, and a request that fails over across
// replicas is still one plan of the live stream.
func (g *generation) observeDrift(root *plan.Node, m *Metrics) {
	if g.drift == nil {
		return
	}
	tokens := corepythia.DriftTokens(root)
	g.driftMu.Lock()
	tr := g.drift.Observe(tokens)
	g.driftMu.Unlock()
	if tr.Evaluated {
		m.driftEvals.Add(1)
	}
	if tr.Changed {
		m.Record(obs.Event{Kind: quality.DriftEventKind(tr.To), Query: obs.NoQuery})
	}
}

// Pool is the serving tier's model tier: N replicas behind one ring.
type Pool struct {
	db      *catalog.Database
	metrics *Metrics
	opts    Options
	fgate   *faultGate
	warm    *warmer

	cur    atomic.Pointer[generation]
	swapMu sync.Mutex // serializes Swap; Predict never takes it
	swaps  atomic.Uint64
}

// newPool builds a pool of opts.Replicas independent replicas over a trained
// system. Past one replica the system is snapshotted once and decoded
// opts.Replicas-1 times (replica 0 serves the original), so construction cost
// scales with model size, not training time. opts are already normalized;
// opts.Fault arms the fault gate every replica of every generation shares.
func newPool(db *catalog.Database, sys *corepythia.System, metrics *Metrics, opts Options) (*Pool, error) {
	fgate := &faultGate{inj: opts.Fault}
	p := &Pool{db: db, metrics: metrics, opts: opts, fgate: fgate, warm: newWarmer()}
	var snap bytes.Buffer
	if opts.Replicas > 1 {
		if err := sys.Save(&snap); err != nil {
			return nil, fmt.Errorf("serve: snapshotting system for replication: %w", err)
		}
	}
	instances := make([]*instance, opts.Replicas)
	instances[0] = newInstance(0, 1, sys, metrics, fgate, opts)
	for i := 1; i < opts.Replicas; i++ {
		clone, err := corepythia.LoadSystem(db, sys.Config(), bytes.NewReader(snap.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("serve: cloning replica %d: %w", i, err)
		}
		instances[i] = newInstance(i, 1, clone, metrics, fgate, opts)
	}
	p.cur.Store(newGeneration(1, instances, newRing(opts.Replicas)))
	return p, nil
}

// failoverable reports whether a replica error is one routing may move past:
// saturation and injected model faults are properties of the replica, so a
// ring successor can still answer. Context errors are properties of the
// request (the budget is spent either way) and propagate unchanged.
func failoverable(err error) bool {
	return errors.Is(err, ErrSaturated) || errors.Is(err, errModelFault)
}

// Predict walks the serving tier's one failure ladder: shed → failover →
// quarantine → cached-or-degraded fallback → probe → recover. It feeds the
// plan to the generation's drift monitor, matches the query once on the
// routing replica, encodes and fingerprints its plan once (replicas of a
// generation decode one snapshot, so the router's token IDs are every
// replica's), routes the fingerprint through the ring, and answers on the
// owning replica with those IDs — or, when the owner is quarantined,
// saturated, or faulting, fails over to up to maxFailovers ring successors
// (each hop recorded as a failover).
//
// Admission is lazy: a candidate's health is consulted only when the walk
// reaches it, so a request the owner answers never touches a successor.
// Quarantined replicas are skipped, except that a quarantined candidate whose
// probe backoff has elapsed is admitted one probe request; if the probe
// fails, the request still fails over, so probing costs the client nothing
// while any other candidate is live. When no candidate's model path may be
// tried, a plan the owner has cached still answers from that cache, and
// anything else answers the degraded fallback rather than an error —
// prefetching is advisory, so degraded beats unavailable.
func (p *Pool) Predict(ctx context.Context, q plan.Query, root *plan.Node) (Prediction, error) {
	gen := p.cur.Load()
	gen.observeDrift(root, p.metrics)
	tw := gen.instances[0].sys.Match(q)
	if tw == nil {
		return Prediction{Fallback: true, Replica: -1, Generation: gen.id}, nil
	}
	ids := tw.Pred.EncodePlan(root)
	fp := fingerprint(tw.Name, ids)
	if p.opts.CacheEntries > 0 {
		p.warm.note(fp, q, root)
	}
	var obuf [maxFailovers + 1]int
	order := gen.ring.lookupN(fp, obuf[:0], len(obuf))

	var pred Prediction
	var err error
	// hops counts the candidates moved past since the last one tried —
	// quarantined skips plus that candidate's own failed attempt — and is
	// recorded as failovers only when a later candidate is actually tried.
	hops, tried := 0, false
	for _, idx := range order {
		ins := gen.instances[idx]
		if ins.health.serving() || ins.health.allowProbe() {
			p.noteFailovers(hops)
			hops, tried = 0, true
			pred, err = ins.predict(ctx, q, root, ids, fp)
			if err == nil || !failoverable(err) {
				return pred, err
			}
		}
		hops++
	}
	if !tried {
		owner := gen.instances[order[0]]
		if pages, hit := owner.cache.get(fp); hit {
			return Prediction{Workload: tw.Name, Cached: true, Pages: pages, Replica: owner.id, Generation: gen.id}, nil
		}
		return Prediction{Fallback: true, Degraded: "no_healthy_replica", Replica: -1, Generation: gen.id}, nil
	}
	return pred, err
}

// noteFailovers records n failover hops: the obs.ReplicaFailover total is the
// fleet's one failover count.
func (p *Pool) noteFailovers(n int) {
	for i := 0; i < n; i++ {
		p.metrics.Record(obs.Event{Kind: obs.ReplicaFailover, Query: obs.NoQuery})
	}
}

// Workloads returns the routing replica's trained workloads (every replica
// holds an identical inventory).
func (p *Pool) Workloads() []*corepythia.Trained {
	return p.cur.Load().instances[0].sys.Workloads()
}

// Status reports the pool topology: the current generation's drift monitor
// and one row per replica (the rows' counters restart with each generation;
// see ReplicaStatus).
func (p *Pool) Status() InfStatus {
	gen := p.cur.Load()
	gen.driftMu.Lock()
	st := InfStatus{Generation: gen.id, Swaps: p.swaps.Load(), Drift: gen.drift.Stats()}
	gen.driftMu.Unlock()
	for _, ins := range gen.instances {
		st.Replicas = append(st.Replicas, ins.status())
	}
	return st
}

// BaselineID reports the serving generation's drift-baseline identity (every
// replica decodes the same snapshot, so the routing replica's answers for
// all).
func (p *Pool) BaselineID() *corepythia.BaselineID {
	return p.cur.Load().instances[0].sys.BaselineID()
}

// Swap loads a snapshot into a complete standby generation (one fresh clone
// per replica), warms it on recently served plans, and atomically makes it
// the serving generation. Requests in flight complete on the generation that
// admitted them; a request observes exactly one generation end to end, never
// a mix.
//
// The swap is transactional: if any replica fails to build its standby —
// a corrupt or truncated snapshot (pythia.ErrSnapshotCorrupt), a version
// mismatch, or an injected replica build fault — the partial standby is
// dropped and the old generation keeps serving, untouched. The serving
// pointer only ever swings to a complete generation.
func (p *Pool) Swap(r io.Reader) error {
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("serve: reading snapshot: %w", err)
	}
	old := p.cur.Load()
	cfg := old.instances[0].sys.Config()
	genID := old.id + 1
	instances := make([]*instance, len(old.instances))
	for i := range instances {
		if p.fgate.fireReplica(i) {
			return fmt.Errorf("serve: building standby replica %d: %w", i, errModelFault)
		}
		sys, err := corepythia.LoadSystem(p.db, cfg, bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("serve: loading snapshot into replica %d: %w", i, err)
		}
		if i == 0 && len(sys.Workloads()) == 0 {
			return errors.New("serve: snapshot contains no trained workloads")
		}
		instances[i] = newInstance(i, genID, sys, p.metrics, p.fgate, p.opts)
	}
	next := newGeneration(genID, instances, old.ring)
	p.warmUp(next)
	p.cur.Store(next)
	p.swaps.Add(1)
	return nil
}

// warmUp fills a standby generation's prediction caches from the warm set
// before it takes traffic. Each recorded plan is fingerprinted against the new
// models (a new snapshot may encode the same plan differently), predicted by
// the standby, and stored in the cache of the replica that will own it. It is
// a cache fill, not a request: no admission, fault draw, health outcome,
// drift observation or counter, and no entry displaced, so a swap moves no
// books. The warm set is empty when caching is off.
func (p *Pool) warmUp(next *generation) {
	router := next.instances[0]
	for _, e := range p.warm.snapshot() {
		tw := router.sys.Lookup(e.q)
		if tw == nil {
			continue
		}
		ids := tw.Pred.EncodePlan(e.root)
		fp := fingerprint(tw.Name, ids)
		pages := tw.Pred.Predict(e.root, ids)
		next.instances[next.ring.lookup(fp)].cache.put(fp, pages[:min(len(pages), router.sys.PrefetchBudget())], false)
	}
}
