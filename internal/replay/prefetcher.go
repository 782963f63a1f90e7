package replay

import (
	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/oscache"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/span"
	"github.com/pythia-db/pythia/internal/storage"
)

// prefetcher is the per-query AIO structure: it drains a queue of predicted
// block offsets (already in file-storage order), keeps at most window
// prefetched-but-unconsumed pages pinned in the buffer pool, and bounds its
// in-flight reads by the configured AIO depth. Its reads go through the OS
// page cache with their own readahead stream — reading in file order means
// many prefetches become OS-cache copies, exactly the cooperation the paper
// engineers (§3.3, Prefetcher).
type prefetcher struct {
	r      *runner
	queue  []storage.PageID
	next   int
	window int

	stream   *oscache.Stream
	inflight int
	idle     []*pfRead        // AIO slots with no read in flight
	pinned   []storage.PageID // FIFO of pages pinned on the query's behalf
	started  bool             // model inference finished; prefetching may begin
	done     bool

	// consecAbandons counts abandoned pages since the last successful
	// arrival; reaching Config.MaxAbandons disables prefetching for the
	// query (graceful degradation to the no-prefetch path).
	consecAbandons int
}

// pfRead is one AIO slot: a read holds it from issue until it arrives or is
// abandoned. The slot's arrival callback is bound when the prefetcher is
// built, so scheduling an arrival allocates nothing.
type pfRead struct {
	page    storage.PageID
	sid     span.SpanID // the read's PrefetchRead span
	arrived func()
}

func newPrefetcher(r *runner, pages []storage.PageID, window int) *prefetcher {
	p := &prefetcher{
		r:      r,
		queue:  pages,
		window: window,
		stream: r.osc.NewStream(),
	}
	reads := make([]pfRead, r.cfg.PrefetchWorkers)
	for i := range reads {
		rd := &reads[i]
		rd.arrived = func() { p.arrived(rd) }
		p.idle = append(p.idle, rd)
	}
	return p
}

// release returns a finished read's slot.
func (p *prefetcher) release(rd *pfRead) {
	p.inflight--
	p.idle = append(p.idle, rd)
}

// start marks the model's predictions as available and begins prefetching.
// Until then pump is a no-op: executor progress (dummy requests) must not
// start I/O for predictions that do not exist yet.
func (p *prefetcher) start() {
	p.r.enter()
	p.started = true
	p.pump()
}

// pump issues prefetches while the window and AIO depth allow. A pump
// attempt with queued pages but a full window is a window stall — the
// flow-control event the readahead window R exists to create; it is counted
// so window-sweep experiments can see the stall pressure, not just the
// end-to-end time.
func (p *prefetcher) pump() {
	if p.done || !p.started {
		return
	}
	for p.next < len(p.queue) &&
		len(p.pinned)+p.inflight < p.window &&
		p.inflight < p.r.cfg.PrefetchWorkers {
		page := p.queue[p.next]
		p.next++
		p.issue(page)
	}
	if p.next < len(p.queue) && len(p.pinned)+p.inflight >= p.window {
		p.r.result.WindowStalls++
		p.r.record(obs.WindowStall, storage.PageID{})
	}
}

// issue starts one asynchronous prefetch read.
func (p *prefetcher) issue(page storage.PageID) {
	if p.r.pool.Contains(page) {
		// Already resident: "nothing happens except increasing its use
		// count" — refresh and move on without I/O.
		p.r.pool.Insert(page, false)
		p.r.result.PrefetchSkip++
		p.r.record(obs.PrefetchSkipped, page)
		return
	}
	p.r.record(obs.PrefetchIssued, page)
	p.inflight++
	rd := p.idle[len(p.idle)-1]
	p.idle = p.idle[:len(p.idle)-1]
	// One PrefetchRead span covers the read from issue to arrival (or
	// abandonment), retries included — disk time off the executor's critical
	// path. Its ID rides along the attempt/retry chain.
	rd.page, rd.sid = page, p.r.tr.Begin(span.PrefetchRead, p.r.idx, page, p.r.eng.Now())
	p.attempt(rd, 0)
}

// attempt runs one read attempt for an in-flight prefetch. On a transient
// device-read fault it schedules a backoff retry; when retries are exhausted
// it abandons the page to the executor's synchronous-read fallback. With no
// injector configured the body reduces exactly to the original fault-free
// read path.
func (p *prefetcher) attempt(rd *pfRead, attempt int) {
	page, now := rd.page, p.r.eng.Now()
	hit, readahead := p.r.osc.Read(p.stream, page, p.r.objPages(page))
	for range readahead {
		p.r.disk.ReadWith(now, p.r.cfg.Cost.SeqDiskRead)
	}
	var arrive sim.Time
	if hit {
		arrive = now.Add(p.r.cfg.Cost.OSCacheCopy)
	} else {
		inj := p.r.cfg.Fault
		lat := p.r.cfg.Cost.DiskRead
		if inj != nil {
			lat = inj.ReadLatency(now, lat)
		}
		done := p.r.disk.ReadWith(now, lat)
		if inj.Fire(fault.PrefetchRead, now) {
			// The failed read still occupied a disk channel, but the page
			// never arrived: undo the OS cache's speculative insert so the
			// retry (or the executor's fallback read) re-pays the miss.
			p.r.osc.Drop(page)
			p.r.result.ReadFailures++
			p.r.record(obs.DiskReadFailed, page)
			if attempt >= p.r.cfg.MaxRetries {
				p.abandon(rd, done)
				return
			}
			p.r.result.PrefetchRetries++
			p.r.record(obs.PrefetchRetried, page)
			next := done.Add(p.r.cfg.backoff(attempt))
			p.r.tr.Complete(span.PrefetchRetryWait, p.r.idx, page, done, next)
			p.r.eng.At(next, func() { p.retry(rd, attempt+1) })
			return
		}
		arrive = done
	}
	p.r.eng.At(arrive, rd.arrived)
}

// retry re-runs a failed prefetch attempt after its backoff delay.
func (p *prefetcher) retry(rd *pfRead, attempt int) {
	p.r.enter()
	if p.done {
		p.release(rd)
		p.r.tr.End(rd.sid, p.r.eng.Now())
		return
	}
	p.attempt(rd, attempt)
}

// abandon gives up on one page after exhausting retries: the executor will
// read it synchronously when it gets there (FallbackSyncRead). Too many
// consecutive abandons disable prefetching for the rest of the query — the
// bottom rung of the degradation ladder, converging to the no-prefetch
// baseline instead of burning device channels on a failing path.
func (p *prefetcher) abandon(rd *pfRead, done sim.Time) {
	page, sid := rd.page, rd.sid
	p.release(rd)
	p.consecAbandons++
	p.r.result.PrefetchAbandons++
	p.r.record(obs.PrefetchAbandoned, page)
	// The span ends in abandonment; stash it so the executor's fallback
	// synchronous read links back to the I/O that failed to deliver.
	p.r.tr.EndDetail(sid, done, span.DetailAbandoned)
	p.r.tr.Stash(page, sid)
	if p.r.abandoned == nil {
		p.r.abandoned = make(map[storage.PageID]bool)
	}
	p.r.abandoned[page] = true
	if p.r.cfg.MaxAbandons > 0 && p.consecAbandons >= p.r.cfg.MaxAbandons && !p.done {
		p.r.result.PrefetchGaveUp = true
		p.shutdown()
		return
	}
	p.pump()
}

// arrived lands a prefetched page in the buffer pool and pins it.
func (p *prefetcher) arrived(rd *pfRead) {
	p.r.enter()
	page, sid := rd.page, rd.sid
	p.release(rd)
	p.r.tr.End(sid, p.r.eng.Now())
	if p.done {
		return
	}
	p.consecAbandons = 0
	if p.r.pool.Insert(page, true) {
		p.r.pool.Pin(page)
		p.pinned = append(p.pinned, page)
		p.r.result.Prefetched++
		p.r.record(obs.PrefetchPinned, page)
		// Stash the read span: the mark of this frame's eventual hit (or
		// wasted eviction) links back to it.
		p.r.tr.Stash(page, sid)
	} else {
		// Every frame pinned: limited prefetching backs off rather than
		// deadlocking the pool.
		p.r.result.PrefetchSkip++
		p.r.record(obs.PrefetchSkipped, page)
	}
	p.pump()
}

// onExecutorRead is the dummy AIO request: each executor read releases one
// prefetched page — the page itself if it was pinned for this query,
// otherwise the oldest pinned page ("the page that it returns from this
// dummy request is just discarded (not used, but it stays in the buffer)").
func (p *prefetcher) onExecutorRead(page storage.PageID) {
	if len(p.pinned) > 0 {
		idx := 0
		for i, q := range p.pinned {
			if q == page {
				idx = i
				break
			}
		}
		released := p.pinned[idx]
		p.pinned = append(p.pinned[:idx], p.pinned[idx+1:]...)
		p.r.pool.Unpin(released)
	}
	p.pump()
}

// shutdown unpins everything still held when the query completes.
func (p *prefetcher) shutdown() {
	p.done = true
	for _, page := range p.pinned {
		p.r.pool.Unpin(page)
	}
	p.pinned = nil
}
