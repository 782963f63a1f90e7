package serve

import (
	"sync"
	"sync/atomic"

	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/predictor"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
)

// predCache is the serving tier's plan-fingerprint prediction cache: a
// bounded, sharded LRU from fingerprint (FNV-64a over the workload name and
// the serialized plan's token IDs) to the predicted page set. DSB-style
// workloads draw queries from a handful of templates, so under steady
// traffic most requests repeat a recently seen plan — a hit skips the
// transformer entirely, turning a multi-millisecond forward pass into a map
// lookup.
//
// Concurrency: each shard is guarded by its own mutex; fingerprints spread
// across shards by their low bits, so concurrent handlers rarely contend.
// The cached page slices are immutable once stored (the put path hands over
// a freshly built slice and nothing writes through it afterwards), so get
// can return the slice itself without copying.
type predCache struct {
	shards []pcShard
	mask   uint64

	// This cache's own outcomes: its replica's row on /v1/admin/replicas,
	// gone with the generation that owns it.
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	// rec receives PredCacheHit / PredCacheMiss / PredCacheEvict: the hub's
	// totals of those events are the fleet's prediction-cache counts on
	// /metrics and /stats, across every cache of every generation.
	rec obs.Recorder
}

// pcEntry is one cached prediction on a shard's LRU list. Entry structs are
// recycled through the shard free list so a full cache churns without
// allocating list nodes; the page slices are NOT recycled — readers may
// still hold them after an eviction.
type pcEntry struct {
	key        uint64
	pages      []storage.PageID
	prev, next *pcEntry
}

// pcShard is one LRU shard: a map for lookup and an intrusive
// most-recent-first list for eviction order.
type pcShard struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*pcEntry
	head    *pcEntry // most recently used
	tail    *pcEntry // eviction candidate
	free    *pcEntry // recycled entry structs (chained via next)
}

// pcShards is the shard count (a power of two; fingerprint low bits select
// the shard).
const pcShards = 16

// newPredCache builds a cache bounded to capacity entries in total. The
// recorder (may be nil) receives one event per hit/miss/eviction.
//
// The shard count scales down with capacity (one shard per ~8 entries, up
// to pcShards): slicing a small cache 16 ways leaves each shard room for
// only an entry or two, so a working set that fits the aggregate bound
// still thrashes shard-locally. A handful of shards keeps lock contention
// negligible at the request rates a small cache implies.
func newPredCache(capacity int, rec obs.Recorder) *predCache {
	shards := 1
	for shards < pcShards && shards*16 <= capacity {
		shards *= 2
	}
	c := &predCache{shards: make([]pcShard, shards), mask: uint64(shards - 1), rec: rec}
	per := (capacity + shards - 1) / shards
	for i := range c.shards {
		c.shards[i].cap = per
		c.shards[i].entries = make(map[uint64]*pcEntry, per)
	}
	return c
}

// fingerprint keys the cache: the plan's token-ID fingerprint with the
// workload name folded in, so identical token sequences from different
// workloads' vocabularies cannot alias.
//
//pythia:noalloc
func fingerprint(workload string, ids []int) uint64 {
	h := predictor.Fingerprint(ids)
	for i := 0; i < len(workload); i++ {
		h ^= uint64(workload[i])
		h *= sim.FNVPrime64
	}
	return h
}

// get returns the cached prediction for a fingerprint. The hit path is the
// serving tier's fastest: one shard lock, one map lookup, two pointer
// splices — no allocation, no inference.
//
//pythia:noalloc
func (c *predCache) get(key uint64) ([]storage.PageID, bool) {
	sh := &c.shards[key&c.mask]
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		if c.rec != nil {
			c.rec.Record(obs.Event{Kind: obs.PredCacheMiss, Query: obs.NoQuery})
		}
		return nil, false
	}
	sh.moveFront(e)
	pages := e.pages
	sh.mu.Unlock()
	c.hits.Add(1)
	if c.rec != nil {
		c.rec.Record(obs.Event{Kind: obs.PredCacheHit, Query: obs.NoQuery})
	}
	return pages, true
}

// put stores a prediction. At capacity it evicts the shard's
// least-recently-used entry when evict is set (a served miss) and otherwise
// drops the new one (the swap warm-up, which displaces and counts nothing).
// The pages slice is stored as-is and must not be mutated by the caller
// afterwards.
func (c *predCache) put(key uint64, pages []storage.PageID, evict bool) {
	sh := &c.shards[key&c.mask]
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		// Concurrent misses on the same plan both infer and both store;
		// last writer wins (the results are identical anyway — inference is
		// deterministic).
		e.pages = pages
		sh.moveFront(e)
		sh.mu.Unlock()
		return
	}
	evicted := false
	if len(sh.entries) >= sh.cap {
		if !evict {
			sh.mu.Unlock()
			return
		}
		old := sh.tail
		sh.unlink(old)
		delete(sh.entries, old.key)
		old.pages = nil // release to GC; readers may still hold the slice
		old.next = sh.free
		sh.free = old
		evicted = true
	}
	e := sh.free
	if e != nil {
		sh.free = e.next
		e.next = nil
	} else {
		e = new(pcEntry)
	}
	e.key = key
	e.pages = pages
	sh.pushFront(e)
	sh.entries[key] = e
	sh.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
		if c.rec != nil {
			c.rec.Record(obs.Event{Kind: obs.PredCacheEvict, Query: obs.NoQuery})
		}
	}
}

// len returns the total entry count across shards.
func (c *predCache) len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].entries)
		c.shards[i].mu.Unlock()
	}
	return n
}

// capacity returns the bound the cache enforces (the sum of shard caps;
// ceiling division may round the configured value up by at most
// shards-1).
func (c *predCache) capacity() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].cap
	}
	return n
}

// pushFront inserts a detached entry at the head.
//
//pythia:noalloc
func (sh *pcShard) pushFront(e *pcEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// unlink removes an entry from the list.
//
//pythia:noalloc
func (sh *pcShard) unlink(e *pcEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveFront marks an entry most recently used.
//
//pythia:noalloc
func (sh *pcShard) moveFront(e *pcEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}
