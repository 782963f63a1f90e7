// Package buffer implements the RDBMS buffer pool the prefetcher cooperates
// with: a fixed number of page frames, a replacement policy (Clock by
// default, matching Postgres; LRU and MRU added exactly as the paper's §5.3
// experiment adds them), pin counts, and hit/miss accounting.
//
// The pool stores page identities only — the simulator is trace-driven — but
// its replacement behaviour is exact: Clock sweeps a ring of reference bits,
// LRU evicts the least recently used unpinned frame, MRU the most recently
// used. Pinned frames are never evicted, which is how Pythia's readahead
// window guarantees prefetched pages survive until the executor consumes
// them.
package buffer

import (
	"fmt"

	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/storage"
)

// Policy selects the replacement algorithm.
type Policy int

const (
	// Clock is Postgres' clock-sweep approximation of LRU (the default).
	Clock Policy = iota
	// LRU evicts the least recently used unpinned page.
	LRU
	// MRU evicts the most recently used unpinned page.
	MRU
)

// String names the policy for reports.
func (p Policy) String() string {
	switch p {
	case Clock:
		return "clock"
	case LRU:
		return "lru"
	case MRU:
		return "mru"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Stats counts buffer pool events for one run.
type Stats struct {
	Hits           uint64 // requests served from the pool
	Misses         uint64 // requests that had to read below the pool
	Evictions      uint64 // frames replaced
	Inserts        uint64 // pages brought into the pool
	PrefetchedIn   uint64 // pages inserted by the prefetcher
	PrefetchHits   uint64 // prefetched pages later hit by the executor
	PrefetchWasted uint64 // prefetched pages evicted before any executor use
	FailedInserts  uint64 // inserts refused because every frame was pinned
}

// HitRatio returns hits / (hits+misses), or 0 for an idle pool.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// frame is one slab slot: a resident page and its replacement state.
type frame struct {
	page       storage.PageID
	pins       int32
	prev, next int32 // LRU/MRU: slots towards the MRU and LRU ends of the recency ring
	ref        bool  // clock reference bit
	prefetched bool  // inserted by the prefetcher, not yet used
}

// Pool is a buffer pool of capacity page frames under one replacement
// policy. The zero value is unusable; construct with New.
//
// Frames live in a flat slab: index finds a page's slot, and an eviction
// hands the victim's slot to the page that caused it, so every slot from 1
// up is a resident page. Under Clock the slab in slot order is the ring the
// hand sweeps; under LRU and MRU the recency list is threaded through the
// frames by slot. Slot 0 holds no page: it is the recency ring's root, whose
// next is the most and whose prev the least recently used slot, and the
// "no victim" answer.
type Pool struct {
	capacity int
	policy   Policy
	index    *storage.PageIndex
	frames   []frame
	hand     int32 // Clock: next slot the sweep examines
	stats    Stats
	rec      obs.Recorder // nil = observability off (one nil-check per event)
}

// New returns a pool with the given frame capacity and policy. Capacity must
// be positive.
func New(capacity int, policy Policy) *Pool {
	if capacity <= 0 {
		panic("buffer: non-positive capacity")
	}
	return &Pool{
		capacity: capacity,
		policy:   policy,
		index:    storage.NewPageIndex(capacity),
		frames:   make([]frame, 1, capacity+1),
		hand:     1,
	}
}

// Cap returns the pool's frame capacity.
func (p *Pool) Cap() int { return p.capacity }

// Len returns the number of resident pages.
func (p *Pool) Len() int { return len(p.frames) - 1 }

// Policy returns the replacement policy.
func (p *Pool) Policy() Policy { return p.policy }

// Stats returns a copy of the pool's counters.
func (p *Pool) Stats() Stats { return p.stats }

// SetRecorder attaches an event recorder (nil detaches). The pool emits
// BufferHit/BufferMiss on Get, BufferInsert/PrefetchedIn on Insert,
// BufferEvict/PrefetchWasted on eviction, BufferInsertFailed when every
// frame is pinned, and PrefetchHit when the executor consumes a prefetched
// frame.
func (p *Pool) SetRecorder(rec obs.Recorder) { p.rec = rec }

//pythia:noalloc
func (p *Pool) record(k obs.Kind, pg storage.PageID) {
	if p.rec != nil {
		p.rec.Record(obs.Event{Kind: k, Query: obs.NoQuery, Page: pg})
	}
}

// Contains reports residency without touching usage information or stats;
// the prefetcher uses it to skip pages already in the pool.
func (p *Pool) Contains(pg storage.PageID) bool {
	_, ok := p.index.Get(pg)
	return ok
}

// Pinned returns the pin count of a resident page (0 if absent).
func (p *Pool) Pinned(pg storage.PageID) int {
	if slot, ok := p.index.Get(pg); ok {
		return int(p.frames[slot].pins)
	}
	return 0
}

// Get looks up a page for the executor. On a hit it bumps the page's usage
// (reference bit or recency) and returns true; on a miss it returns false and
// the caller is responsible for reading the page and calling Insert. A hit on
// a prefetched frame is counted as a useful prefetch, mirroring the paper's
// "if it is found in the buffer, nothing happens except increasing its use
// count".
//
//pythia:noalloc
func (p *Pool) Get(pg storage.PageID) bool {
	slot, ok := p.index.Get(pg)
	if !ok {
		p.stats.Misses++
		p.record(obs.BufferMiss, pg)
		return false
	}
	p.stats.Hits++
	p.record(obs.BufferHit, pg)
	if f := &p.frames[slot]; f.prefetched {
		f.prefetched = false
		p.stats.PrefetchHits++
		p.record(obs.PrefetchHit, pg)
	}
	p.touch(slot)
	return true
}

// Insert brings a page into the pool after a miss read. prefetched marks
// inserts performed by the prefetcher. If the page is already resident,
// Insert just bumps its usage. If the pool is full and every frame is
// pinned, the insert is refused and Insert returns false — the caller (the
// prefetcher) must back off rather than deadlock.
func (p *Pool) Insert(pg storage.PageID, prefetched bool) bool {
	slot, ok := p.index.Get(pg)
	if ok {
		p.touch(slot)
		return true
	}
	if p.Len() < p.capacity {
		slot = int32(len(p.frames))
		p.frames = append(p.frames, frame{})
	} else {
		if slot = p.victim(); slot == 0 {
			p.stats.FailedInserts++
			p.record(obs.BufferInsertFailed, pg)
			return false
		}
		p.evict(slot)
	}
	p.frames[slot] = frame{page: pg, prefetched: prefetched, ref: true}
	p.index.Put(pg, slot)
	if p.policy != Clock {
		p.pushFront(slot)
	}
	p.stats.Inserts++
	p.record(obs.BufferInsert, pg)
	if prefetched {
		p.stats.PrefetchedIn++
		p.record(obs.PrefetchedIn, pg)
	}
	return true
}

// Pin increments the page's pin count, protecting it from eviction. It
// returns false if the page is not resident.
func (p *Pool) Pin(pg storage.PageID) bool {
	slot, ok := p.index.Get(pg)
	if !ok {
		return false
	}
	p.frames[slot].pins++
	return true
}

// Unpin decrements the page's pin count. Unpinning an absent or unpinned
// page panics: pin balance bugs corrupt eviction and must surface loudly.
func (p *Pool) Unpin(pg storage.PageID) {
	slot, ok := p.index.Get(pg)
	if !ok {
		panic("buffer: Unpin of non-resident page " + pg.String())
	}
	if p.frames[slot].pins == 0 {
		panic("buffer: Unpin of unpinned page " + pg.String())
	}
	p.frames[slot].pins--
}

// PinnedCount returns the number of frames with at least one pin.
func (p *Pool) PinnedCount() int {
	n := 0
	for i := 1; i < len(p.frames); i++ {
		if p.frames[i].pins > 0 {
			n++
		}
	}
	return n
}

// --- policy plumbing ---

// touch records a use of the frame in slot.
func (p *Pool) touch(slot int32) {
	if p.policy == Clock {
		p.frames[slot].ref = true
	} else {
		p.unlink(slot)
		p.pushFront(slot)
	}
}

// unlink takes slot out of the recency ring.
func (p *Pool) unlink(slot int32) {
	f := p.frames[slot]
	p.frames[f.prev].next = f.next
	p.frames[f.next].prev = f.prev
}

// pushFront makes an unlinked slot the most recently used.
func (p *Pool) pushFront(slot int32) {
	head := p.frames[0].next
	p.frames[slot].prev, p.frames[slot].next = 0, head
	p.frames[head].prev = slot
	p.frames[0].next = slot
}

// evict removes the page in slot, leaving the slot to the caller. Under
// Clock the slot keeps its place in the ring.
func (p *Pool) evict(slot int32) {
	f := p.frames[slot]
	if p.policy != Clock {
		p.unlink(slot)
	}
	p.index.Delete(f.page)
	p.stats.Evictions++
	p.record(obs.BufferEvict, f.page)
	if f.prefetched {
		p.stats.PrefetchWasted++
		p.record(obs.PrefetchWasted, f.page)
	}
}

// victim selects the slot of an unpinned frame to evict, or 0 if every frame
// is pinned.
func (p *Pool) victim() int32 {
	switch p.policy {
	case Clock:
		return p.clockVictim()
	case LRU:
		for s := p.frames[0].prev; s != 0; s = p.frames[s].prev {
			if p.frames[s].pins == 0 {
				return s
			}
		}
		return 0
	case MRU:
		for s := p.frames[0].next; s != 0; s = p.frames[s].next {
			if p.frames[s].pins == 0 {
				return s
			}
		}
		return 0
	default:
		panic("buffer: unknown policy")
	}
}

// clockVictim sweeps the ring: a frame with its reference bit set gets a
// second chance (bit cleared); the first unpinned frame with a clear bit is
// the victim. Two full sweeps with no candidate means everything is pinned.
func (p *Pool) clockVictim() int32 {
	for pass := 0; pass < 2*p.Len(); pass++ {
		slot := p.hand
		if p.hand++; int(p.hand) == len(p.frames) {
			p.hand = 1
		}
		f := &p.frames[slot]
		if f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		return slot
	}
	return 0
}
