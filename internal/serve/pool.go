package serve

// The pool is the serving tier's model tier: one generation at a time, each
// one trained pythia.System with one prediction cache, one bounded work queue
// and one drift monitor. One trunk already runs concurrent forward passes, so
// a second in-process copy of the same weights would add cache and queue
// capacity — both of which are options — and no cores.
//
// A model swap builds a complete standby generation from a snapshot and
// swings one atomic pointer; the new generation starts with a cold cache.
// Requests in flight keep the generation pointer they loaded, so every
// request runs against exactly one coherent generation — there is no torn
// state to observe — and the superseded generation is collected once its last
// request returns.

import (
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
	"github.com/pythia-db/pythia/internal/storage"
)

// generation is one immutable serving configuration: a trained system and the
// cache, queue and drift monitor that live and die with it. It keeps no books:
// every total is a Metrics hub counter. Predict loads it once and uses only
// it, so a concurrent Swap can never hand a request parts of two generations.
type generation struct {
	id  uint64
	sys *corepythia.System

	// cache is the inference fast path; nil when caching is off.
	cache *predCache

	// queue bounds concurrently admitted requests; its length is the
	// in-flight count. A full queue sheds instead of queueing unboundedly
	// behind a slow inference.
	queue chan struct{}

	// drift compares the live plan stream against the training baseline the
	// generation's snapshot carries. Nil when the snapshot has no baseline
	// (drift detection off). driftMu serializes it.
	driftMu sync.Mutex
	drift   *quality.Monitor
}

// serveDriftEvalEvery slows the drift monitor's evaluation cadence on the
// serve tier relative to the replay default: it quadruples the decayed live
// sample each PSI reading is computed from, so a stable mix's score, which
// alone sets the served drift state, sits further below the warn threshold.
const serveDriftEvalEvery = 64

func newGeneration(id uint64, sys *corepythia.System, metrics *Metrics, opts Options) *generation {
	g := &generation{id: id, sys: sys,
		queue: make(chan struct{}, opts.QueueDepth),
		drift: quality.NewMonitor(sys.Baseline(), quality.Options{EvalEvery: serveDriftEvalEvery})}
	if opts.CacheEntries > 0 {
		g.cache = newPredCache(opts.CacheEntries, metrics)
	}
	return g
}

// observeDrift folds one request's plan into the generation's live profile
// and counts the evaluation it may run. Pool.Predict calls it once per
// request before matching: unmatched plans are exactly the shift drift
// detection exists to catch.
func (g *generation) observeDrift(root *plan.Node, m *Metrics) {
	if g.drift == nil {
		return
	}
	tokens := corepythia.DriftTokens(root)
	g.driftMu.Lock()
	evaluated := g.drift.Observe(tokens)
	g.driftMu.Unlock()
	if evaluated {
		m.driftEvals.Add(1)
	}
}

// status reports the generation's row for InfStatus.
func (g *generation) status() GenerationStatus {
	st := GenerationStatus{
		InFlight:   int64(len(g.queue)),
		QueueDepth: cap(g.queue),
		Workloads:  workloadNames(g.sys),
	}
	for _, tw := range g.sys.Workloads() {
		st.Params += tw.Pred.ParamCount()
	}
	return st
}

// Pool is the serving tier's model tier: the serving generation and what
// outlives it (the fault gate, the swap count).
type Pool struct {
	db      *catalog.Database
	metrics *Metrics
	opts    Options
	fgate   *faultGate

	cur    atomic.Pointer[generation]
	swapMu sync.Mutex // serializes Swap; Predict never takes it
	swaps  atomic.Uint64
}

// newPool serves a trained system as generation 1. opts are already
// normalized; opts.Fault arms the fault gate every generation shares.
func newPool(db *catalog.Database, sys *corepythia.System, metrics *Metrics, opts Options) *Pool {
	p := &Pool{db: db, metrics: metrics, opts: opts, fgate: &faultGate{inj: opts.Fault}}
	p.cur.Store(newGeneration(1, sys, metrics, opts))
	return p
}

// Predict answers one planned query on the serving generation. It feeds the
// plan to the generation's drift monitor, matches the query once, encodes and
// fingerprints its plan once, and then runs bounded-queue admission →
// prediction cache → fault injection → inference → cache fill.
//
// A model-path error answers the degraded fallback on that request and counts
// one obs.ModelError; nothing else changes state, so the next request tries
// the model again. Prefetching is advisory: a query without a prediction runs
// on the default path, so degraded beats unavailable. A full queue is
// ErrSaturated and an expired budget the context's error, for the Server to
// map to 503 and 504.
func (p *Pool) Predict(ctx context.Context, q plan.Query, root *plan.Node) (Prediction, error) {
	gen := p.cur.Load()
	gen.observeDrift(root, p.metrics)
	tw := gen.sys.Match(q)
	if tw == nil {
		return Prediction{Fallback: true, Generation: gen.id}, nil
	}
	ids := tw.Pred.EncodePlan(root)
	fp := fingerprint(tw.Name, ids)
	pred := Prediction{Workload: tw.Name, Generation: gen.id}
	select {
	case gen.queue <- struct{}{}:
		defer func() { <-gen.queue }()
	default:
		return pred, ErrSaturated
	}

	// A hit performs zero inference and cannot fail, so it is checked before
	// the fault hook.
	if pages, hit := gen.cache.get(fp); hit {
		pred.Cached = true
		pred.Pages = pages
		return pred, nil
	}
	if p.fgate.fire() {
		p.metrics.Record(obs.Event{Kind: obs.ModelError, Query: obs.NoQuery})
		return Prediction{Fallback: true, Degraded: "model_error", Generation: gen.id}, nil
	}
	pages, err := p.infer(ctx, gen, tw, root, ids)
	if err != nil {
		return pred, err
	}
	if gen.cache != nil {
		// Only successful inferences populate the cache; faulted or
		// timed-out requests never do, so the cache cannot serve poison.
		gen.cache.put(fp, pages)
	}
	pred.Pages = pages
	return pred, nil
}

// infer runs the miss (inference) path: one Predictor.Predict per request. The
// slow step runs off the caller's goroutine so a disconnected client (or an
// expired budget) aborts the wait, not the work. Context errors come back
// verbatim for the Server to map to 504/499.
func (p *Pool) infer(ctx context.Context, gen *generation, tw *corepythia.Trained, root *plan.Node, ids []int) ([]storage.PageID, error) {
	done := make(chan []storage.PageID, 1)
	//pythia:goleak-ok one-shot inference; done is buffered so the sender exits even when the select below took the ctx branch
	go func() { done <- tw.Pred.Predict(root, ids) }()
	select {
	case pages := <-done:
		p.metrics.Record(obs.Event{Kind: obs.InferenceRun, Query: obs.NoQuery})
		return gen.sys.LimitPrefetch(pages), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Workloads returns the serving generation's trained workloads.
func (p *Pool) Workloads() []*corepythia.Trained {
	return p.cur.Load().sys.Workloads()
}

// Status reports the serving generation: its drift monitor, its cache
// residency and its model row.
func (p *Pool) Status() InfStatus {
	gen := p.cur.Load()
	gen.driftMu.Lock()
	st := InfStatus{Generation: gen.id, Swaps: p.swaps.Load(), Drift: gen.drift.Stats()}
	gen.driftMu.Unlock()
	st.Model = gen.status()
	if gen.cache != nil {
		st.CacheEntries = gen.cache.len()
	}
	return st
}

// BaselineID reports the serving generation's drift-baseline identity.
func (p *Pool) BaselineID() *corepythia.BaselineID {
	return p.cur.Load().sys.BaselineID()
}

// Swap loads a snapshot into a standby generation and atomically makes it the
// serving generation: a build and one pointer store. It serves no request, so
// it moves no books but the swap count, and the new generation's cache starts
// empty. Requests in flight complete on the generation that admitted them; a
// request observes exactly one generation end to end, never a mix.
//
// The swap is transactional: a corrupt or truncated snapshot
// (pythia.ErrSnapshotCorrupt), a version mismatch or an untrained one leaves
// the old generation serving, untouched. The serving pointer only ever swings
// to a complete generation.
func (p *Pool) Swap(r io.Reader) error {
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	old := p.cur.Load()
	sys, err := corepythia.LoadSystem(p.db, old.sys.Config(), r)
	if err != nil {
		return fmt.Errorf("serve: loading snapshot: %w", err)
	}
	if len(sys.Workloads()) == 0 {
		return errors.New("serve: snapshot contains no trained workloads")
	}
	p.cur.Store(newGeneration(old.id+1, sys, p.metrics, p.opts))
	p.swaps.Add(1)
	return nil
}
