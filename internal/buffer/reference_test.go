package buffer

import (
	"container/list"
	"math/rand"
	"testing"

	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/storage"
)

// refPool is the pool as it was before the flat slab: a Go map from page to
// heap-allocated frame, a ring of frame pointers with a hole stack for Clock,
// and container/list for LRU/MRU. It is kept as the reference model
// TestPoolMatchesMapReference holds Pool to; span marks are left out (the
// replay goldens pin those).
type refPool struct {
	capacity int
	policy   Policy
	frames   map[storage.PageID]*refFrame
	stats    Stats
	rec      obs.Recorder
	ring     []*refFrame
	hand     int
	freeSlot []int
	lru      *list.List // front = most recently used
}

type refFrame struct {
	page       storage.PageID
	pins       int
	ref        bool
	elem       *list.Element
	slot       int
	prefetched bool
}

func newRefPool(capacity int, policy Policy) *refPool {
	return &refPool{
		capacity: capacity,
		policy:   policy,
		frames:   make(map[storage.PageID]*refFrame, capacity),
		lru:      list.New(),
	}
}

func (p *refPool) record(k obs.Kind, pg storage.PageID) {
	p.rec.Record(obs.Event{Kind: k, Query: obs.NoQuery, Page: pg})
}

func (p *refPool) Len() int { return len(p.frames) }

func (p *refPool) Contains(pg storage.PageID) bool {
	_, ok := p.frames[pg]
	return ok
}

func (p *refPool) Pinned(pg storage.PageID) int {
	if f, ok := p.frames[pg]; ok {
		return f.pins
	}
	return 0
}

func (p *refPool) Get(pg storage.PageID) bool {
	f, ok := p.frames[pg]
	if !ok {
		p.stats.Misses++
		p.record(obs.BufferMiss, pg)
		return false
	}
	p.stats.Hits++
	p.record(obs.BufferHit, pg)
	if f.prefetched {
		f.prefetched = false
		p.stats.PrefetchHits++
		p.record(obs.PrefetchHit, pg)
	}
	p.touch(f)
	return true
}

func (p *refPool) Insert(pg storage.PageID, prefetched bool) bool {
	if f, ok := p.frames[pg]; ok {
		p.touch(f)
		return true
	}
	if len(p.frames) >= p.capacity {
		victim := p.victim()
		if victim == nil {
			p.stats.FailedInserts++
			p.record(obs.BufferInsertFailed, pg)
			return false
		}
		p.evict(victim)
	}
	f := &refFrame{page: pg, prefetched: prefetched}
	p.frames[pg] = f
	p.attach(f)
	p.stats.Inserts++
	p.record(obs.BufferInsert, pg)
	if prefetched {
		p.stats.PrefetchedIn++
		p.record(obs.PrefetchedIn, pg)
	}
	return true
}

func (p *refPool) Pin(pg storage.PageID) bool {
	f, ok := p.frames[pg]
	if !ok {
		return false
	}
	f.pins++
	return true
}

func (p *refPool) Unpin(pg storage.PageID) { p.frames[pg].pins-- }

func (p *refPool) PinnedCount() int {
	n := 0
	for _, f := range p.frames {
		if f.pins > 0 {
			n++
		}
	}
	return n
}

func (p *refPool) attach(f *refFrame) {
	switch p.policy {
	case Clock:
		f.ref = true
		if n := len(p.freeSlot); n > 0 {
			slot := p.freeSlot[n-1]
			p.freeSlot = p.freeSlot[:n-1]
			f.slot = slot
			p.ring[slot] = f
		} else {
			f.slot = len(p.ring)
			p.ring = append(p.ring, f)
		}
	default:
		f.elem = p.lru.PushFront(f)
	}
}

func (p *refPool) touch(f *refFrame) {
	switch p.policy {
	case Clock:
		f.ref = true
	default:
		p.lru.MoveToFront(f.elem)
	}
}

func (p *refPool) evict(f *refFrame) {
	switch p.policy {
	case Clock:
		p.ring[f.slot] = nil
		p.freeSlot = append(p.freeSlot, f.slot)
	default:
		p.lru.Remove(f.elem)
	}
	delete(p.frames, f.page)
	p.stats.Evictions++
	p.record(obs.BufferEvict, f.page)
	if f.prefetched {
		p.stats.PrefetchWasted++
		p.record(obs.PrefetchWasted, f.page)
	}
}

func (p *refPool) victim() *refFrame {
	switch p.policy {
	case Clock:
		if len(p.ring) == 0 {
			return nil
		}
		for pass := 0; pass < 2*len(p.ring); pass++ {
			f := p.ring[p.hand]
			p.hand = (p.hand + 1) % len(p.ring)
			if f == nil || f.pins > 0 {
				continue
			}
			if f.ref {
				f.ref = false
				continue
			}
			return f
		}
		return nil
	case LRU:
		for e := p.lru.Back(); e != nil; e = e.Prev() {
			if f := e.Value.(*refFrame); f.pins == 0 {
				return f
			}
		}
		return nil
	default: // MRU
		for e := p.lru.Front(); e != nil; e = e.Next() {
			if f := e.Value.(*refFrame); f.pins == 0 {
				return f
			}
		}
		return nil
	}
}

// TestPoolMatchesMapReference drives the slab pool and the map reference with
// the same seeded strings of Get/Insert/Pin/Unpin/Contains and requires,
// after every step, the same return value, Stats, Len, pin counts and event
// stream — so the same victim at every eviction. Half the strings pin far
// more than they unpin, which fills small pools with pinned frames and
// exercises the refused insert.
func TestPoolMatchesMapReference(t *testing.T) {
	for _, policy := range []Policy{Clock, LRU, MRU} {
		var refused uint64
		for seed := int64(0); seed < 1000; seed++ {
			r := rand.New(rand.NewSource(seed))
			capacity := 1 + r.Intn(64)
			pinShare := 10
			if seed%2 == 1 {
				pinShare = 30
			}
			pool, ref := New(capacity, policy), newRefPool(capacity, policy)
			gotLog, wantLog := obs.NewEventLog(), obs.NewEventLog()
			pool.SetRecorder(gotLog)
			ref.rec = wantLog
			var pinned []storage.PageID // one entry per outstanding pin
			logged := 0

			for step := 0; step < 300; step++ {
				// A universe three times the capacity (object 0, the zero
				// PageID's, included) keeps hits, misses and evictions common.
				page := storage.PageID{Object: storage.ObjectID(r.Intn(3)), Page: storage.PageNum(r.Intn(capacity))}
				var got, want interface{}
				switch op := r.Intn(100); {
				case op < 30:
					got, want = pool.Get(page), ref.Get(page)
				case op < 60:
					prefetched := r.Intn(2) == 0
					got, want = pool.Insert(page, prefetched), ref.Insert(page, prefetched)
				case op < 60+pinShare:
					got, want = pool.Pin(page), ref.Pin(page)
					if want == true {
						pinned = append(pinned, page)
					}
				case op < 85:
					if len(pinned) == 0 {
						continue
					}
					i := r.Intn(len(pinned))
					pool.Unpin(pinned[i])
					ref.Unpin(pinned[i])
					pinned = append(pinned[:i], pinned[i+1:]...)
				default:
					got, want = pool.Contains(page), ref.Contains(page)
				}
				if got != want {
					t.Fatalf("%v seed %d step %d: returned %v, reference %v", policy, seed, step, got, want)
				}
				if pool.Stats() != ref.stats || pool.Len() != ref.Len() ||
					pool.PinnedCount() != ref.PinnedCount() || pool.Pinned(page) != ref.Pinned(page) {
					t.Fatalf("%v seed %d step %d: stats %+v len %d pinned %d/%d, reference %+v %d %d/%d", policy, seed, step,
						pool.Stats(), pool.Len(), pool.PinnedCount(), pool.Pinned(page),
						ref.stats, ref.Len(), ref.PinnedCount(), ref.Pinned(page))
				}
				g, w := gotLog.Events(), wantLog.Events()
				if len(g) != len(w) {
					t.Fatalf("%v seed %d step %d: %d events, reference %d", policy, seed, step, len(g), len(w))
				}
				for ; logged < len(w); logged++ {
					if g[logged] != w[logged] {
						t.Fatalf("%v seed %d step %d: event %d is %+v, reference %+v", policy, seed, step, logged, g[logged], w[logged])
					}
				}
			}
			refused += ref.stats.FailedInserts
		}
		if refused == 0 {
			t.Fatalf("%v: no string ever filled a pool with pinned frames", policy)
		}
	}
}

// BenchmarkPoolGetInsert is the buffer probe of bench/'s probeCaches in
// miniature: a Get, an Insert on a miss, and a Pin/Unpin on every eighth
// request, over a page string three times the pool.
func BenchmarkPoolGetInsert(b *testing.B) {
	const capacity = 2048
	r := rand.New(rand.NewSource(1))
	pages := make([]storage.PageID, 1<<16)
	for i := range pages {
		pages[i] = storage.PageID{Object: storage.ObjectID(1 + r.Intn(3)), Page: storage.PageNum(r.Intn(capacity))}
	}
	pool := New(capacity, Clock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := pages[i%len(pages)]
		if !pool.Get(pg) {
			pool.Insert(pg, false)
		}
		if i%8 == 0 && pool.Pin(pg) {
			pool.Unpin(pg)
		}
	}
}
