package oscache

import (
	"container/list"
	"math/rand"
	"testing"

	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/storage"
)

// refCache is the cache as it was before the flat slab: a Go map from page to
// container/list element and a fresh readahead slice per read. It is kept as
// the reference model TestCacheMatchesMapReference holds Cache to; span marks
// are left out (the replay goldens pin those).
type refCache struct {
	capacity  int
	maxWindow int
	pages     map[storage.PageID]*list.Element
	lru       *list.List // front = most recently used
	stats     Stats
	rec       obs.Recorder
}

func newRefCache(capacity, maxWindow int) *refCache {
	if maxWindow <= 0 {
		maxWindow = DefaultMaxWindow
	}
	return &refCache{
		capacity:  capacity,
		maxWindow: maxWindow,
		pages:     make(map[storage.PageID]*list.Element, capacity),
		lru:       list.New(),
	}
}

func (c *refCache) record(k obs.Kind, p storage.PageID) {
	c.rec.Record(obs.Event{Kind: k, Query: obs.NoQuery, Page: p})
}

func (c *refCache) Len() int { return c.lru.Len() }

func (c *refCache) Contains(p storage.PageID) bool {
	_, ok := c.pages[p]
	return ok
}

func (c *refCache) Read(s *Stream, p storage.PageID, objPages storage.PageNum) (hit bool, readahead []storage.PageID) {
	sequential := s.valid && s.object == p.Object && p.Page == s.last+1
	if sequential {
		s.window *= 2
		if s.window > c.maxWindow {
			s.window = c.maxWindow
		}
	} else {
		s.window = 1
	}
	s.object, s.last, s.valid = p.Object, p.Page, true

	if e, ok := c.pages[p]; ok {
		c.lru.MoveToFront(e)
		c.stats.Hits++
		c.record(obs.OSCacheHit, p)
		hit = true
	} else {
		c.stats.Misses++
		c.record(obs.OSCacheMiss, p)
		c.insert(p)
	}

	if sequential && s.window > 0 {
		for i := 1; i <= s.window; i++ {
			n := p.Page + storage.PageNum(i)
			if n >= objPages {
				break
			}
			ra := storage.PageID{Object: p.Object, Page: n}
			if c.Contains(ra) {
				continue
			}
			c.insert(ra)
			c.record(obs.OSReadaheadPage, ra)
			readahead = append(readahead, ra)
		}
		if len(readahead) > 0 {
			c.stats.ReadaheadBursts++
			c.stats.ReadaheadPages += uint64(len(readahead))
		}
	}
	return hit, readahead
}

func (c *refCache) insert(p storage.PageID) {
	if _, ok := c.pages[p]; ok {
		return
	}
	if c.lru.Len() >= c.capacity {
		back := c.lru.Back()
		victim := back.Value.(storage.PageID)
		c.lru.Remove(back)
		delete(c.pages, victim)
		c.stats.Evictions++
		c.record(obs.OSCacheEvict, victim)
	}
	c.pages[p] = c.lru.PushFront(p)
}

func (c *refCache) Drop(p storage.PageID) {
	if e, ok := c.pages[p]; ok {
		c.lru.Remove(e)
		delete(c.pages, p)
	}
}

// TestCacheMatchesMapReference drives the slab cache and the map reference
// with the same seeded strings of Read (through three interleaved streams,
// mostly continuing their runs), Contains and Drop, and requires after
// every step the same hit, the same readahead pages, Stats, Len and event
// stream — so the same victim at every eviction and the same slot-reuse
// behaviour after a Drop. Objects are 1 to 300 pages, so runs keep meeting
// the end of the file, where the readahead window is cut short.
func TestCacheMatchesMapReference(t *testing.T) {
	var cut int // reads whose readahead the object's end cut short
	for seed := int64(0); seed < 1000; seed++ {
		r := rand.New(rand.NewSource(seed))
		capacity := 1 + r.Intn(64)
		maxWindow := r.Intn(33) // 0 = the default
		objPages := make([]storage.PageNum, 4)
		for i := range objPages {
			objPages[i] = storage.PageNum(1 + r.Intn(300))
		}
		cache, ref := New(capacity, maxWindow), newRefCache(capacity, maxWindow)
		gotLog, wantLog := obs.NewEventLog(), obs.NewEventLog()
		cache.SetRecorder(gotLog)
		ref.rec = wantLog
		const streams = 3
		var gotStreams, wantStreams [streams]*Stream
		var next [streams]storage.PageID // the page that would continue each run
		for i := range gotStreams {
			gotStreams[i], wantStreams[i] = cache.NewStream(), &Stream{}
		}
		randomPage := func() storage.PageID {
			obj := r.Intn(len(objPages))
			return storage.PageID{Object: storage.ObjectID(obj), Page: storage.PageNum(r.Intn(int(objPages[obj])))}
		}
		logged := 0

		for step := 0; step < 400; step++ {
			switch op := r.Intn(100); {
			case op < 80:
				k := r.Intn(streams)
				page := next[k]
				if page.Page >= objPages[page.Object] || r.Intn(10) == 0 {
					page = randomPage()
				}
				next[k] = storage.PageID{Object: page.Object, Page: page.Page + 1}
				size := objPages[page.Object]
				hit, ra := cache.Read(gotStreams[k], page, size)
				wantHit, wantRA := ref.Read(wantStreams[k], page, size)
				if hit != wantHit || len(ra) != len(wantRA) {
					t.Fatalf("seed %d step %d: Read(%v) = %v %v, reference %v %v", seed, step, page, hit, ra, wantHit, wantRA)
				}
				for i := range wantRA {
					if ra[i] != wantRA[i] {
						t.Fatalf("seed %d step %d: Read(%v) readahead %v, reference %v", seed, step, page, ra, wantRA)
					}
				}
				if g, w := gotStreams[k], wantStreams[k]; g.object != w.object || g.last != w.last || g.valid != w.valid || g.window != w.window {
					t.Fatalf("seed %d step %d: stream %+v, reference %+v", seed, step, *g, *w)
				}
				if w := wantStreams[k].window; len(wantRA) < w && page.Page+storage.PageNum(w) >= size {
					cut++
				}
			case op < 88:
				page := randomPage()
				if got, want := cache.Contains(page), ref.Contains(page); got != want {
					t.Fatalf("seed %d step %d: Contains(%v) = %v, reference %v", seed, step, page, got, want)
				}
			default:
				page := randomPage()
				cache.Drop(page)
				ref.Drop(page)
			}
			if cache.Stats() != ref.stats || cache.Len() != ref.Len() {
				t.Fatalf("seed %d step %d: stats %+v len %d, reference %+v %d", seed, step, cache.Stats(), cache.Len(), ref.stats, ref.Len())
			}
			g, w := gotLog.Events(), wantLog.Events()
			if len(g) != len(w) {
				t.Fatalf("seed %d step %d: %d events, reference %d", seed, step, len(g), len(w))
			}
			for ; logged < len(w); logged++ {
				if g[logged] != w[logged] {
					t.Fatalf("seed %d step %d: event %d is %+v, reference %+v", seed, step, logged, g[logged], w[logged])
				}
			}
		}
	}
	if cut == 0 {
		t.Fatal("no readahead window ever reached the end of its object")
	}
}

// BenchmarkCacheRead is the OS-cache probe of bench/'s probeCaches in
// miniature: scans long enough to open the readahead window to its ceiling,
// broken up by random single-page reads, over a file set larger than the
// cache.
func BenchmarkCacheRead(b *testing.B) {
	const capacity, objPages = 8192, 20000
	r := rand.New(rand.NewSource(1))
	pages := make([]storage.PageID, 0, 1<<16)
	for len(pages) < cap(pages) {
		start := storage.PageID{Object: storage.ObjectID(1 + r.Intn(3)), Page: storage.PageNum(r.Intn(objPages - 64))}
		for i, run := 0, 1+r.Intn(64); i < run && len(pages) < cap(pages); i++ {
			pages = append(pages, storage.PageID{Object: start.Object, Page: start.Page + storage.PageNum(i)})
		}
	}
	cache := New(capacity, 0)
	stream := cache.NewStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.Read(stream, pages[i%len(pages)], objPages)
	}
}
