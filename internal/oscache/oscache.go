// Package oscache models the operating system page cache that sits between
// the RDBMS buffer pool and the disk. Postgres "relies heavily on OS
// readahead for achieving better performance" (paper §4): sequential reads
// are detected per open stream and the kernel asynchronously fetches a
// growing window of subsequent blocks, so a sequential scan's reads become
// memory copies instead of disk copies.
//
// The cache is an LRU over OS pages. Readahead is per-Stream (per file
// descriptor in the kernel): a reader that touches block n+1 right after
// block n extends a run, and each run doubles its readahead window up to a
// maximum, like Linux's ondemand readahead. Pythia's prefetcher issues its
// reads in file-storage order precisely so that this machinery turns many of
// its prefetches into cache copies.
package oscache

import (
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/storage"
)

// DefaultMaxWindow is the default readahead ceiling in pages (128 KiB of
// 8 KiB pages, the common Linux default for readahead size).
const DefaultMaxWindow = 16

// Stats counts OS cache events.
type Stats struct {
	Hits            uint64 // reads served from the page cache
	Misses          uint64 // reads that went to the device
	ReadaheadPages  uint64 // pages fetched asynchronously by readahead
	ReadaheadBursts uint64 // readahead operations issued
	Evictions       uint64
}

// HitRatio returns hits / (hits+misses), or 0 when idle.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stream is one reader's sequential-access detector (the analog of a file
// descriptor's readahead state). Each scan node and each prefetch worker
// owns its own Stream, made by the Cache it reads through.
//
// ahead is a watermark: pages last+1 through ahead of the object were
// resident when the cache had removed removedAt pages in all. While the
// cache's count still reads removedAt, they still are, so the next
// sequential read's readahead starts after ahead instead of probing them
// again.
type Stream struct {
	object    storage.ObjectID
	last      storage.PageNum
	valid     bool
	window    int
	ahead     storage.PageNum
	removedAt uint64
}

// entry is one cached page and its neighbours in the recency ring.
type entry struct {
	page       storage.PageID
	prev, next int32 // slots towards the MRU and LRU ends
}

// Cache is the OS page cache. The zero value is unusable; construct with
// New. Pages live in a flat slab of entries: index finds a page's slot and
// the recency list is threaded through the entries by slot, so nothing is
// allocated per page. Slot 0 holds no page: it is the ring's root, whose next
// is the most and whose prev the least recently used slot (itself when the
// cache is empty), and the end mark of the free chain.
type Cache struct {
	capacity  int
	maxWindow int
	index     *storage.PageIndex
	entries   []entry
	free      int32            // slots emptied by Drop, chained through next and reused first
	removed   uint64           // pages ever removed: evictions and Drop
	readahead []storage.PageID // scratch behind Read's second result
	stats     Stats
	rec       obs.Recorder // nil = observability off (one nil-check per event)
}

// New returns a cache holding capacity pages with the given maximum
// readahead window (DefaultMaxWindow if maxWindow <= 0).
func New(capacity int, maxWindow int) *Cache {
	if capacity <= 0 {
		panic("oscache: non-positive capacity")
	}
	if maxWindow <= 0 {
		maxWindow = DefaultMaxWindow
	}
	return &Cache{
		capacity:  capacity,
		maxWindow: maxWindow,
		index:     storage.NewPageIndex(capacity),
		entries:   make([]entry, 1, capacity+1),
		readahead: make([]storage.PageID, 0, maxWindow),
	}
}

// NewStream returns a fresh readahead detector.
func (c *Cache) NewStream() *Stream { return &Stream{} }

// Cap returns the cache capacity in pages.
func (c *Cache) Cap() int { return c.capacity }

// Len returns the number of cached pages.
func (c *Cache) Len() int { return c.index.Len() }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetRecorder attaches an event recorder (nil detaches). The cache emits
// OSCacheHit/OSCacheMiss per read, OSReadaheadPage per page fetched
// asynchronously, and OSCacheEvict per eviction.
func (c *Cache) SetRecorder(rec obs.Recorder) { c.rec = rec }

//pythia:noalloc
func (c *Cache) record(k obs.Kind, p storage.PageID) {
	if c.rec != nil {
		c.rec.Record(obs.Event{Kind: k, Query: obs.NoQuery, Page: p})
	}
}

// Contains reports residency without side effects.
func (c *Cache) Contains(p storage.PageID) bool {
	_, ok := c.index.Get(p)
	return ok
}

// Read performs one page read through stream s. objPages bounds readahead to
// the object's file size. It returns whether the read hit the cache and the
// pages the kernel fetches asynchronously via readahead (already inserted
// into the cache; the caller charges their device time in the background).
// The readahead slice is the cache's own scratch: it is valid until the next
// Read.
//
//pythia:noalloc
func (c *Cache) Read(s *Stream, p storage.PageID, objPages storage.PageNum) (hit bool, readahead []storage.PageID) {
	sequential := s.valid && s.object == p.Object && p.Page == s.last+1
	if sequential {
		// Extend the run: double the window up to the ceiling.
		s.window *= 2
		if s.window > c.maxWindow {
			s.window = c.maxWindow
		}
	} else {
		// New or broken run: minimal window (one page of lookahead) so a
		// run that restarts can grow again.
		s.window = 1
	}
	s.object, s.last, s.valid = p.Object, p.Page, true

	hit = c.touchOrMiss(p)

	c.readahead = c.readahead[:0]
	ahead := p.Page
	if sequential {
		// The pages up to the watermark would all answer Contains: skip them
		// unless something was removed since it was set (touchOrMiss may
		// just have evicted).
		n := p.Page + 1
		if s.removedAt == c.removed && s.ahead >= n {
			n = s.ahead + 1
		}
		removed := c.removed
		for end := p.Page + storage.PageNum(s.window); n <= end && n < objPages; n++ {
			ra := storage.PageID{Object: p.Object, Page: n}
			if c.Contains(ra) {
				continue
			}
			c.insert(ra)
			c.record(obs.OSReadaheadPage, ra)
			c.readahead = append(c.readahead, ra)
		}
		// Pages p+1 to n-1 are resident now, unless an insert evicted one.
		if c.removed == removed {
			ahead = n - 1
		}
		if len(c.readahead) > 0 {
			c.stats.ReadaheadBursts++
			c.stats.ReadaheadPages += uint64(len(c.readahead))
		}
	}
	s.ahead, s.removedAt = ahead, c.removed
	return hit, c.readahead
}

// touchOrMiss looks the page up, bumping recency on a hit and inserting on a
// miss (a device read always populates the cache).
//
//pythia:noalloc
func (c *Cache) touchOrMiss(p storage.PageID) bool {
	if slot, ok := c.index.Get(p); ok {
		c.unlink(slot)
		c.pushFront(slot)
		c.stats.Hits++
		c.record(obs.OSCacheHit, p)
		return true
	}
	c.stats.Misses++
	c.record(obs.OSCacheMiss, p)
	c.insert(p)
	return false
}

// insert adds a page the caller knows to be absent, evicting the least
// recently used page if full.
func (c *Cache) insert(p storage.PageID) {
	var slot int32
	switch {
	case c.index.Len() >= c.capacity:
		slot = c.entries[0].prev
		victim := c.entries[slot].page
		c.unlink(slot)
		c.index.Delete(victim)
		c.removed++
		c.stats.Evictions++
		c.record(obs.OSCacheEvict, victim)
	case c.free != 0:
		slot = c.free
		c.free = c.entries[slot].next
	default:
		slot = int32(len(c.entries))
		c.entries = append(c.entries, entry{})
	}
	c.entries[slot].page = p
	c.index.Put(p, slot)
	c.pushFront(slot)
}

// unlink takes slot out of the recency ring.
func (c *Cache) unlink(slot int32) {
	e := c.entries[slot]
	c.entries[e.prev].next = e.next
	c.entries[e.next].prev = e.prev
}

// pushFront makes an unlinked slot the most recently used.
func (c *Cache) pushFront(slot int32) {
	head := c.entries[0].next
	c.entries[slot].prev, c.entries[slot].next = 0, head
	c.entries[head].prev = slot
	c.entries[0].next = slot
}

// Drop removes a page (the prefetcher's undo of a failed read); absent pages
// are ignored.
func (c *Cache) Drop(p storage.PageID) {
	if slot, ok := c.index.Get(p); ok {
		c.unlink(slot)
		c.index.Delete(p)
		c.removed++
		c.entries[slot].next = c.free
		c.free = slot
	}
}
