// Package replay is the timing engine: it replays one or more queries' page
// request scripts through the full cache hierarchy (buffer pool → OS page
// cache → disk) on a discrete-event timeline, optionally with an
// asynchronous Pythia-style prefetcher per query, and reports per-query
// elapsed times. Speedup — the paper's headline metric — is the ratio of a
// query's replayed time without prefetching to its time with.
//
// The model mirrors the paper's modified Postgres (§4):
//
//   - The executor always uses the default synchronous read path: buffer hit,
//     else OS-cache copy, else disk read ("we modify Postgres to never request
//     page from the AIO structure but always using the default read call").
//   - The prefetcher works through an AIO queue of sorted block offsets,
//     keeps at most Window prefetched-but-unconsumed pages pinned, and each
//     executor read files a "dummy request" that releases one entry so the
//     next prefetch can be initiated.
//   - Prefetch reads and foreground misses share the same disk channels, so
//     prefetch I/O can contend with foreground I/O under concurrency.
//   - Sequential executor reads benefit from OS readahead; the prefetcher
//     issues its reads in file-storage order to earn the same benefit.
package replay

import (
	"fmt"
	"time"

	"github.com/pythia-db/pythia/internal/buffer"
	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/oscache"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/span"
	"github.com/pythia-db/pythia/internal/storage"
)

// QuerySpec is one query to replay.
type QuerySpec struct {
	// ID labels the query in results.
	ID string
	// Arrival is the virtual time the query starts.
	Arrival sim.Duration
	// Requests is the executor's ordered page-access script.
	Requests []storage.Request
	// Prefetch is the sorted set of pages to prefetch asynchronously; nil
	// or empty replays the default (no-prefetch) strategy.
	Prefetch []storage.PageID
	// Window is the readahead window R — the maximum number of prefetched,
	// not-yet-consumed pages kept pinned. Zero means the paper's default,
	// 1024.
	Window int
}

// The cost model stands in for the paper's physical testbed (4-core machine,
// HDD-class storage, Linux page cache). The three read outcomes mirror
// Postgres' read path: "buffer hit if found in buffer, memory copy if buffer
// miss but present in OS buffer, disk copy if miss in both buffers".
// Absolute values are unimportant — speedups are ratios — but the ordering
// diskRead ≫ osCacheCopy ≫ bufferHit is what makes prefetching matter. A
// random read costs 250× an OS-cache copy and far more than a page's share of
// a streaming sequential scan, the asymmetry that makes non-sequential
// prefetching worth 2–6× end to end (Figure 6).
const (
	// bufferHit is finding the page in the RDBMS buffer pool (a hash-table
	// lookup and a pin).
	bufferHit = 200 * time.Nanosecond
	// osCacheCopy is a buffer miss that hits the OS page cache: a memcpy from
	// kernel to user space plus bookkeeping.
	osCacheCopy = 4 * time.Microsecond
	// diskRead is a read that misses both caches: a random page read with a
	// seek.
	diskRead = 1 * time.Millisecond
	// seqDiskRead is the per-page device time of a sequential transfer, the
	// rate OS readahead streams at: no head movement, which is why sequential
	// scans don't need Pythia (Figure 1) while non-sequential reads do.
	seqDiskRead = 60 * time.Microsecond
	// cpuPerTuple is the executor's processing cost per tuple visited, the
	// non-I/O floor that bounds achievable speedup.
	cpuPerTuple = 50 * time.Nanosecond
	// cpuPerRequest is the per-page-request executor overhead (locating the
	// page, validating headers) wherever the page is found.
	cpuPerRequest = 100 * time.Nanosecond
	// diskChannels is the number of reads the device services concurrently.
	// Foreground reads, readahead and prefetch reads all compete for them,
	// which is how prefetch saturation and contention between queries arise.
	diskChannels = 8
	// predictLatency is Pythia's inference cost before a query's prefetcher
	// starts (the paper measures 1–1.5 s against multi-minute queries, well
	// under 0.5 % of runtime), scaled to the simulation.
	predictLatency = 500 * time.Microsecond
)

// The prefetcher's AIO depth, the default window and the fault ladder's
// three rungs are constants too: no caller runs other values.
const (
	// prefetchWorkers bounds a query's in-flight asynchronous prefetch reads
	// (the AIO queue depth per backend).
	prefetchWorkers = 4
	// defaultWindow is the readahead window of a QuerySpec that leaves
	// Window zero.
	defaultWindow = 1024
	// maxRetries bounds the backoff retries after a failed device read. The
	// prefetcher abandons a page once they are exhausted; the executor's
	// final attempt always succeeds — the fault model is transient, and a
	// query must complete regardless of fault rate.
	maxRetries = 3
	// retryBackoff is the virtual-time delay before the first retry of a
	// failed read; it doubles per subsequent attempt, capped at 8×.
	retryBackoff = 250 * time.Microsecond
	// maxAbandons is the number of consecutive abandoned prefetch pages after
	// which a query's prefetcher gives up entirely — the last rung of the
	// degradation ladder, bounding wasted device traffic so a faulty run
	// converges to the no-prefetch baseline instead of undercutting it.
	maxAbandons = 8
)

// Config shapes one replay run.
type Config struct {
	// BufferPages sizes the RDBMS buffer pool in pages.
	BufferPages int
	// BufferPolicy selects the replacement policy (Clock by default).
	BufferPolicy buffer.Policy
	// OSCachePages sizes the OS page cache (default: 4× buffer).
	OSCachePages int
	// ReadaheadMax caps the OS readahead window in pages.
	ReadaheadMax int
	// Recorder, when non-nil, receives a typed obs.Event for every cache,
	// disk, and prefetcher occurrence of the run, each stamped with the
	// active query index and virtual time, and enables the per-query counter
	// snapshots (QueryResult.Counters). Nil (the default) costs the hot path
	// one nil-check per event site and nothing else.
	Recorder obs.Recorder
	// Fault, when non-nil, injects deterministic transient faults into the
	// run's device reads (see internal/fault). Faults only ever change
	// timing and cache state, never which pages a query reads or how many
	// tuples it processes: the executor retries failed foreground reads
	// until the device delivers, and abandoned prefetches degrade to
	// synchronous executor reads. Build a fresh injector (same plan + seed)
	// per run for bitwise-reproducible timelines.
	Fault *fault.Injector
	// Tracer, when non-nil, records the run's virtual-time span timeline:
	// query lifetimes, executor disk waits and OS copies, asynchronous
	// prefetch reads with causal links to the buffer hits they produce,
	// retry/backoff windows, and a mark for every event of the Recorder
	// stream its table names (see internal/span) — with or without a
	// Recorder set. Like Recorder, nil costs one nil-check per event site,
	// and the timeline is bitwise identical with tracing on or off. Use a
	// fresh (or Reset) tracer per run: spans accumulate.
	Tracer *span.Tracer
}

// Normalize validates the configuration and fills unset (zero) fields with
// defaults. Negative values are rejected rather than silently patched: a
// negative knob is always a caller bug, and the paper's sweeps depend on
// configs meaning what they say. The returned Config is the one to run with.
func (c Config) Normalize() (Config, error) {
	switch {
	case c.BufferPages < 0:
		return c, fmt.Errorf("replay: negative BufferPages %d", c.BufferPages)
	case c.OSCachePages < 0:
		return c, fmt.Errorf("replay: negative OSCachePages %d", c.OSCachePages)
	case c.ReadaheadMax < 0:
		return c, fmt.Errorf("replay: negative ReadaheadMax %d", c.ReadaheadMax)
	}
	if c.BufferPages == 0 {
		c.BufferPages = 1024
	}
	if c.OSCachePages == 0 {
		c.OSCachePages = 4 * c.BufferPages
	}
	return c, nil
}

// backoff returns the virtual-time delay before retry number attempt
// (0-based): retryBackoff doubling per attempt, capped at 8×.
func backoff(attempt int) sim.Duration { return retryBackoff << min(attempt, 3) }

// QueryResult is one query's timing and counters.
type QueryResult struct {
	ID string
	// Prefetch is the page set the query's prefetcher was given: its
	// QuerySpec's slice, shared, not copied.
	Prefetch []storage.PageID
	Start    sim.Time
	End      sim.Time
	Elapsed  sim.Duration

	BufferHits   uint64
	OSCopies     uint64
	DiskReads    uint64 // foreground (executor-blocking) disk reads
	Prefetched   uint64 // pages the prefetcher brought in
	PrefetchSkip uint64 // prefetches skipped (already buffered / dropped)
	WindowStalls uint64 // prefetcher pump attempts blocked by a full window

	ReadFailures      uint64 // failed device read attempts (foreground + prefetch)
	PrefetchRetries   uint64 // backoff retries the prefetcher scheduled
	PrefetchAbandons  uint64 // prefetch pages abandoned after retry exhaustion
	FallbackSyncReads uint64 // abandoned pages the executor served synchronously
	PrefetchGaveUp    bool   // prefetcher hit maxAbandons and disabled itself

	// Counters is the query's full per-kind event snapshot (buffer, OS
	// cache, disk, and prefetcher events attributed to this query). It is
	// nil unless Config.Recorder was set.
	Counters *obs.Counters
}

// RunResult aggregates a replay.
type RunResult struct {
	Queries []QueryResult
	Buffer  buffer.Stats
	OS      oscache.Stats
	Disk    uint64 // total device reads including readahead and prefetch
	End     sim.Time

	// ReadFailures, PrefetchRetries, PrefetchAbandons, and
	// FallbackSyncReads total the per-query degradation counters, so a
	// chaos sweep reads the whole run's fault response at a glance.
	ReadFailures      uint64
	PrefetchRetries   uint64
	PrefetchAbandons  uint64
	FallbackSyncReads uint64
	// InferenceDeadlineMisses counts queries whose model inference blew its
	// virtual-time budget and degraded to the no-prefetch path. It is
	// stamped by pythia.System.Run (the replay engine itself never sees
	// inference).
	InferenceDeadlineMisses uint64
}

// Elapsed returns the result for query id, panicking if absent (harness
// bookkeeping bug).
func (r *RunResult) Elapsed(id string) sim.Duration {
	for i := range r.Queries {
		if r.Queries[i].ID == id {
			return r.Queries[i].Elapsed
		}
	}
	panic("replay: no result for query " + id)
}

// TotalElapsed sums all queries' elapsed times (used by the multi-query
// speedup experiments, which compare aggregate time).
func (r *RunResult) TotalElapsed() sim.Duration {
	var total sim.Duration
	for i := range r.Queries {
		total += r.Queries[i].Elapsed
	}
	return total
}

// tagger is the run's one stamp point: every event from the buffer pool, OS
// cache, and the runners passes through it. It stamps the active query index
// and the virtual time, feeds the per-query snapshot counters, and forwards
// the stamped event to the tracer (whose marks are a view of this stream) and
// the user's recorder. The simulator is single-threaded, so "active query" is
// a plain field the runners set on entry to their callbacks.
type tagger struct {
	eng     *sim.Engine
	sink    obs.Recorder // user recorder; nil = tracing only, no snapshots
	tr      *span.Tracer // nil = span tracing off
	current int32        // query index whose callback is executing
	perQ    []obs.Counters
}

// Record implements obs.Recorder.
//
//pythia:noalloc
func (t *tagger) Record(e obs.Event) {
	if e.Query == obs.NoQuery {
		e.Query = t.current
	}
	if e.At == 0 {
		e.At = t.eng.Now()
	}
	t.tr.Record(e)
	if t.sink == nil {
		return
	}
	if e.Query >= 0 && int(e.Query) < len(t.perQ) {
		t.perQ[e.Query].Record(e)
	}
	t.sink.Record(e)
}

// Run replays the queries against a cold buffer pool and OS cache. It
// panics on an invalid Config (call Config.Normalize first to handle
// validation errors gracefully).
func Run(reg *storage.Registry, cfg Config, queries []QuerySpec) *RunResult {
	cfg, err := cfg.Normalize()
	if err != nil {
		panic(err.Error())
	}
	eng := sim.NewEngine()
	disk := sim.NewDisk(diskChannels)
	pool := buffer.New(cfg.BufferPages, cfg.BufferPolicy)
	osc := oscache.New(cfg.OSCachePages, cfg.ReadaheadMax)

	res := &RunResult{Queries: make([]QueryResult, len(queries))}
	var tag *tagger
	if cfg.Recorder != nil || cfg.Tracer != nil {
		tag = &tagger{eng: eng, sink: cfg.Recorder, tr: cfg.Tracer}
		if cfg.Recorder != nil {
			tag.perQ = make([]obs.Counters, len(queries))
		}
		pool.SetRecorder(tag)
		osc.SetRecorder(tag)
	}
	for i := range queries {
		q := &queries[i]
		res.Queries[i].ID = q.ID
		res.Queries[i].Prefetch = q.Prefetch
		qr := &runner{
			eng: eng, disk: disk, pool: pool, osc: osc, reg: reg,
			cfg: cfg, spec: q, result: &res.Queries[i],
			tag: tag, tr: cfg.Tracer, idx: int32(i),
		}
		eng.Arrive(sim.Time(q.Arrival), qr.start)
	}
	res.End = eng.Run()
	res.Buffer = pool.Stats()
	res.OS = osc.Stats()
	res.Disk = disk.Reads()
	for i := range res.Queries {
		q := &res.Queries[i]
		res.ReadFailures += q.ReadFailures
		res.PrefetchRetries += q.PrefetchRetries
		res.PrefetchAbandons += q.PrefetchAbandons
		res.FallbackSyncReads += q.FallbackSyncReads
	}
	if cfg.Recorder != nil {
		for i := range res.Queries {
			res.Queries[i].Counters = &tag.perQ[i]
		}
	}
	return res
}

// runner executes one query (executor process + optional prefetcher).
type runner struct {
	eng  *sim.Engine
	disk *sim.Disk
	pool *buffer.Pool
	osc  *oscache.Cache
	reg  *storage.Registry
	cfg  Config
	spec *QuerySpec

	result *QueryResult

	tag *tagger      // nil = no recorder and no tracer
	tr  *span.Tracer // nil = span tracing off (duration spans; marks go through tag)
	idx int32        // run-local query index for event attribution

	// lifeSpan is the query's open QuerySpan (NoSpan when tracing is off).
	lifeSpan span.SpanID

	execStream *oscache.Stream
	pf         *prefetcher
	reqIdx     int
	stepFn     func() // r.step, bound once: one closure per query, not per request

	// abandoned holds pages the prefetcher gave up on, so the executor's
	// synchronous read of them is visible as the degradation fallback. Nil
	// until the first abandonment, so fault-free runs pay one nil-check.
	abandoned map[storage.PageID]bool
}

// enter marks this runner's query as the active event source; every
// engine callback of the runner or its prefetcher calls it first so that
// buffer/oscache events fired during the callback are attributed correctly.
func (r *runner) enter() {
	if r.tag != nil {
		r.tag.current = r.idx
	}
}

// record emits one runner-level event (a kind the lower layers cannot see:
// query lifecycle, foreground disk reads, prefetcher decisions).
//
//pythia:noalloc
func (r *runner) record(k obs.Kind, pg storage.PageID) {
	if r.tag != nil {
		r.tag.Record(obs.Event{Kind: k, Query: r.idx, Page: pg})
	}
}

func (r *runner) objPages(p storage.PageID) storage.PageNum {
	obj := r.reg.Lookup(p.Object)
	if obj == nil {
		panic(fmt.Sprintf("replay: request for unknown object %d", p.Object))
	}
	return obj.Pages
}

func (r *runner) start() {
	r.enter()
	r.result.Start = r.eng.Now()
	r.record(obs.QueryStart, storage.PageID{})
	r.lifeSpan = r.tr.BeginLabel(span.QuerySpan, r.spec.ID, r.idx, storage.PageID{}, r.result.Start)
	r.execStream = r.osc.NewStream()
	if len(r.spec.Prefetch) > 0 {
		window := r.spec.Window
		if window <= 0 {
			window = defaultWindow
		}
		r.pf = newPrefetcher(r, r.spec.Prefetch, window)
		// Prediction latency gates the prefetcher, not the executor: model
		// inference runs on the side while execution begins (§3.3).
		r.tr.Complete(span.InferWait, r.idx, storage.PageID{}, r.result.Start,
			r.result.Start.Add(predictLatency))
		r.eng.Schedule(predictLatency, r.pf.start)
	}
	r.stepFn = r.step
	r.eng.Schedule(0, r.stepFn)
}

// step services request reqIdx and the ones after it, for as long as each
// next request would be the engine's next event, then schedules the next one
// at its completion time.
func (r *runner) step() {
	for {
		r.enter()
		if r.reqIdx >= len(r.spec.Requests) {
			r.finish()
			return
		}
		req := r.spec.Requests[r.reqIdx]
		r.reqIdx++

		delay := cpuPerRequest + sim.Duration(req.Tuples)*cpuPerTuple

		if r.pool.Get(req.Page) {
			r.result.BufferHits++
			delay += bufferHit
		} else {
			if r.abandoned != nil && r.abandoned[req.Page] {
				// The prefetcher gave this page up; the executor now pays for
				// it synchronously — the degradation path that converges to
				// the no-prefetch baseline. On a timeline the event's mark links
				// back to the abandoned PrefetchRead span that caused it.
				delete(r.abandoned, req.Page)
				r.result.FallbackSyncReads++
				r.record(obs.FallbackSyncRead, req.Page)
			}
			hit, readahead := r.osc.Read(r.execStream, req.Page, r.objPages(req.Page))
			// Kernel readahead occupies device channels in the background
			// without blocking the foreground read; it streams at the
			// sequential-transfer rate (no seeks within a run).
			now := r.eng.Now()
			for range readahead {
				r.disk.Read(now, seqDiskRead)
			}
			if hit {
				r.result.OSCopies++
				delay += osCacheCopy
				r.tr.Complete(span.ExecOSCopy, r.idx, req.Page, now, now.Add(osCacheCopy))
			} else {
				r.result.DiskReads++
				r.record(obs.DiskRead, req.Page)
				sid := r.tr.Begin(span.ExecDiskWait, r.idx, req.Page, now)
				done := r.syncRead(now, req.Page)
				r.tr.End(sid, done)
				r.tr.Complete(span.ExecOSCopy, r.idx, req.Page, done, done.Add(osCacheCopy))
				delay += done.Sub(now) + osCacheCopy
			}
			r.pool.Insert(req.Page, false)
		}

		// The dummy AIO request: executor progress releases one prefetched page
		// so the prefetcher can initiate the next (§4, "Decoupling AIO from
		// Postgres read call").
		if r.pf != nil {
			r.pf.onExecutorRead(req.Page)
		}
		if !r.eng.Continue(delay) {
			r.eng.Schedule(delay, r.stepFn)
			return
		}
	}
}

// syncRead performs one foreground device read issued at time at, retrying
// transient injected failures with bounded backoff. Each failed attempt
// still occupies a device channel (the device serviced a read that errored).
// After maxRetries failures the final attempt succeeds unconditionally: the
// fault model is transient, and the executor's synchronous path must always
// deliver the page — faults cost time, never results.
func (r *runner) syncRead(at sim.Time, page storage.PageID) sim.Time {
	inj := r.cfg.Fault
	t := at
	for attempt := 0; ; attempt++ {
		done := r.disk.Read(t, inj.ReadLatency(diskRead))
		if attempt >= maxRetries || !inj.Fire(fault.ExecRead) {
			return done
		}
		r.result.ReadFailures++
		r.record(obs.DiskReadFailed, page)
		next := done.Add(backoff(attempt))
		r.tr.Complete(span.ExecRetryWait, r.idx, page, done, next)
		t = next
	}
}

func (r *runner) finish() {
	r.result.End = r.eng.Now()
	r.result.Elapsed = r.result.End.Sub(r.result.Start)
	r.record(obs.QueryFinish, storage.PageID{})
	r.tr.End(r.lifeSpan, r.result.End)
	if r.pf != nil {
		r.pf.shutdown()
	}
}
