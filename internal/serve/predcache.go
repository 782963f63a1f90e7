package serve

import (
	"sync"

	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/predictor"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
)

// predCache is a generation's plan-fingerprint prediction cache: a bounded
// LRU from fingerprint (FNV-64a over the workload name and the serialized
// plan's token IDs) to the predicted page set. DSB-style workloads draw
// queries from a handful of templates, so under steady traffic most requests
// repeat a recently seen plan — a hit skips the transformer entirely, turning
// a multi-millisecond forward pass into a map lookup.
//
// Concurrency: one mutex guards the map and the list. The lock is held for a
// map lookup and two pointer splices — about 100 ns against a request of about
// 100 µs — so sharding it further buys nothing. The cached page slices are
// immutable once stored (the put path hands over a freshly built slice and
// nothing writes through it afterwards), so get can return the slice itself
// without copying.
type predCache struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*pcEntry
	head    *pcEntry // most recently used
	tail    *pcEntry // eviction candidate

	// rec receives PredCacheHit / PredCacheMiss / PredCacheEvict: the hub's
	// totals of those events are the prediction-cache counts on /metrics
	// and /stats, across every cache of every generation.
	rec obs.Recorder
}

// pcEntry is one cached prediction on the intrusive most-recent-first list.
type pcEntry struct {
	key        uint64
	pages      []storage.PageID
	prev, next *pcEntry
}

// newPredCache builds a cache bounded to capacity entries. The recorder (may
// be nil) receives one event per hit/miss/eviction.
func newPredCache(capacity int, rec obs.Recorder) *predCache {
	return &predCache{cap: capacity, entries: make(map[uint64]*pcEntry, capacity), rec: rec}
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

// get returns the cached prediction for a fingerprint; a nil cache (caching
// off) always misses. The hit path is the serving tier's fastest: one lock,
// one map lookup, two pointer splices — no allocation, no inference. It
// never touches the model, which is what lets a cached plan keep its answer
// while the model path is faulting.
//
//pythia:noalloc
func (c *predCache) get(key uint64) ([]storage.PageID, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		if c.rec != nil {
			c.rec.Record(obs.Event{Kind: obs.PredCacheMiss, Query: obs.NoQuery})
		}
		return nil, false
	}
	c.moveFront(e)
	pages := e.pages
	c.mu.Unlock()
	if c.rec != nil {
		c.rec.Record(obs.Event{Kind: obs.PredCacheHit, Query: obs.NoQuery})
	}
	return pages, true
}

// put stores a prediction, evicting the least-recently-used entry at
// capacity. The pages slice is stored as-is and must not be mutated by the
// caller afterwards.
func (c *predCache) put(key uint64, pages []storage.PageID) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		// Concurrent misses on the same plan both infer and both store;
		// last writer wins (the results are identical anyway — inference is
		// deterministic).
		e.pages = pages
		c.moveFront(e)
		c.mu.Unlock()
		return
	}
	evicted := false
	if len(c.entries) >= c.cap {
		old := c.tail
		c.unlink(old)
		delete(c.entries, old.key)
		evicted = true
	}
	e := &pcEntry{key: key, pages: pages}
	c.pushFront(e)
	c.entries[key] = e
	c.mu.Unlock()
	if evicted && c.rec != nil {
		c.rec.Record(obs.Event{Kind: obs.PredCacheEvict, Query: obs.NoQuery})
	}
}

// len returns the entry count.
func (c *predCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// pushFront inserts a detached entry at the head.
//
//pythia:noalloc
func (c *predCache) pushFront(e *pcEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink removes an entry from the list.
//
//pythia:noalloc
func (c *predCache) unlink(e *pcEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveFront marks an entry most recently used.
//
//pythia:noalloc
func (c *predCache) moveFront(e *pcEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
