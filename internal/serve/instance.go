package serve

import (
	"context"
	"errors"
	"sync/atomic"

	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/plan"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/storage"
)

// instance is one serving replica: an independent trained system with its
// own prediction cache, health tracker, and bounded work queue. Replicas
// share nothing but the metrics hub and the fault gate — each holds its own
// encoder trunk and heads (clones decoded from one snapshot). Inference is
// parallel within a replica too: concurrent predictions on one trunk each
// run on a view of its own (model.Trunk), one encoder pass plus its heads
// per request goroutine.
type instance struct {
	id   int
	gen  uint64
	sys  *corepythia.System
	opts Options

	metrics *Metrics
	fgate   *faultGate

	// cache is the inference fast path, per replica: consistent-hash routing
	// sends a plan fingerprint to the same replica every time, so each
	// replica's cache holds a disjoint hot set instead of N copies of the same
	// entries. Nil when disabled.
	cache *predCache

	// health is the replica's failure ladder (see health.go): the pool
	// consults it when routing, so a quarantined replica's shard fails over
	// to ring successors until probes re-admit it.
	health *health

	// queue bounds concurrently admitted requests on this replica; its
	// length is the replica's in-flight count. Routing is by plan hash, not
	// load, so a replica stuck on a slow inference sheds its own overflow
	// instead of queueing unboundedly while its siblings idle.
	queue chan struct{}

	served atomic.Uint64
	shed   atomic.Uint64
}

func newInstance(id int, gen uint64, sys *corepythia.System, metrics *Metrics, fgate *faultGate, opts Options) *instance {
	ins := &instance{
		id: id, gen: gen, sys: sys, opts: opts,
		metrics: metrics, fgate: fgate,
		health: newHealth(opts.QuarantineBackoff, metrics),
		queue:  make(chan struct{}, opts.QueueDepth),
	}
	if opts.CacheEntries > 0 {
		ins.cache = newPredCache(opts.CacheEntries, metrics)
	}
	return ins
}

// predict runs the model path for one planned query the pool has already
// matched, encoded (ids), fingerprinted (fp keys the prediction cache) and
// admitted past the health gate. The replica resolves its own Trained handle
// quietly with Lookup, so one request never records two matching events.
//
// Stage order: bounded-queue admission → prediction cache → fault injection
// → inference → cache fill.
func (ins *instance) predict(ctx context.Context, q plan.Query, root *plan.Node, ids []int, fp uint64) (Prediction, error) {
	p := Prediction{Replica: ins.id, Generation: ins.gen}
	select {
	case ins.queue <- struct{}{}:
		defer func() { <-ins.queue }()
	default:
		// An admission shed counts as a health failure: a replica that
		// cannot accept its shard's traffic is unhealthy from the router's
		// point of view, whatever the cause.
		ins.shed.Add(1)
		ins.metrics.replicaSheds.Add(1)
		ins.health.failure()
		return p, ErrSaturated
	}
	defer ins.served.Add(1)

	tw := ins.sys.Lookup(q)
	if tw == nil {
		// Replicas of one generation decode one snapshot, so the router's
		// match always resolves here; answer the advisory fallback if not.
		p.Fallback = true
		return p, nil
	}
	p.Workload = tw.Name

	// A hit performs zero inference and cannot fail, so it is checked before
	// the fault hook.
	if pages, hit := ins.cache.get(fp); hit {
		ins.health.cacheHit()
		p.Cached = true
		p.Pages = pages
		return p, nil
	}
	if ins.fgate.fireModel(ins.id) {
		ins.health.failure()
		return p, errModelFault
	}
	pages, err := ins.infer(ctx, tw, root, ids)
	if err != nil {
		return p, err
	}
	if ins.cache != nil {
		// Only successful inferences populate the cache; faulted or
		// timed-out requests never do, so the cache cannot serve poison.
		ins.cache.put(fp, pages, true)
	}
	p.Pages = pages
	return p, nil
}

// infer runs the miss (inference) path: one Predictor.Predict per request. The
// slow step runs off the caller's goroutine so a disconnected client (or an
// expired budget) aborts the wait, not the work. Context errors come back
// verbatim for the Server to map to 504/499.
func (ins *instance) infer(ctx context.Context, tw *corepythia.Trained, root *plan.Node, ids []int) ([]storage.PageID, error) {
	done := make(chan []storage.PageID, 1)
	//pythia:goleak-ok one-shot inference; done is buffered so the sender exits even when the select below took the ctx branch
	go func() { done <- tw.Pred.Predict(root, ids) }()
	select {
	case pages := <-done:
		ins.health.success()
		ins.metrics.Record(obs.Event{Kind: obs.InferenceRun, Query: obs.NoQuery})
		return ins.sys.LimitPrefetch(pages), nil
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// A deadline miss is a model-path failure; a canceled request
			// (client gone) says nothing about the replica and records
			// neither way.
			ins.metrics.timeouts.Add(1)
			ins.health.failure()
		}
		return nil, ctx.Err()
	}
}

// status reports this replica's row for InfStatus.
func (ins *instance) status() ReplicaStatus {
	st := ReplicaStatus{
		ID:          ins.id,
		Generation:  ins.gen,
		Served:      ins.served.Load(),
		Shed:        ins.shed.Load(),
		InFlight:    int64(len(ins.queue)),
		QueueDepth:  cap(ins.queue),
		Health:      ins.health.State(),
		HealthValue: ins.health.stateValue(),
		Workloads:   workloadNames(ins.sys),
	}
	for _, tw := range ins.sys.Workloads() {
		st.Params += tw.Pred.ParamCount()
	}
	if ins.cache != nil {
		st.CacheEntries = ins.cache.len()
		st.CacheCapacity = ins.cache.capacity()
		st.CacheHits = ins.cache.hits.Load()
		st.CacheMisses = ins.cache.misses.Load()
		st.CacheEvictions = ins.cache.evictions.Load()
	}
	return st
}
