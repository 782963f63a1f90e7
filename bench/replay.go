package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"github.com/pythia-db/pythia/internal/baselines"
	"github.com/pythia-db/pythia/internal/buffer"
	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/oscache"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/replay"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/workload"
)

// overlap is how many queries the seeded arrival schedule keeps in flight.
// Two keeps the replay's multi-query paths busy while the simulated device
// stays below saturation; at four, queueing dominates every query's elapsed
// time and the oracle's extra reads make the stream three times slower.
const overlap = 2

// lossyShare is the share of the oracle's pages the lossy strategy drops, and
// again the share of wrong pages it adds.
const lossyShare = 0.3

var strategyNames = []string{"none", "oracle", "lossy"}

// replayEnv is one set-up of the replay workload.
type replayEnv struct {
	gen        *dsb.Generator
	sys        *corepythia.System
	insts      []*workload.Instance
	arrivals   []sim.Duration
	strategies []corepythia.PrefetchFunc // in strategyNames order
	requests   int                       // page requests per pass

	// What driving it has produced so far, per strategy.
	rounds int
	first  []uint64            // digests of the first round
	last   []*replay.RunResult // results of the latest round
	passNS [][]float64         // host time of every pass
}

func setupReplay(seed uint64, sc scale) *replayEnv {
	e := &replayEnv{gen: dsb.NewGenerator(dsb.Config{ScaleFactor: sc.ReplaySF, Seed: seed}),
		first: make([]uint64, len(strategyNames)), last: make([]*replay.RunResult, len(strategyNames)),
		passNS: make([][]float64, len(strategyNames))}
	for k, tpl := range e.gen.Templates() {
		e.insts = append(e.insts, e.gen.Workload(tpl, sc.ReplayPerTpl, seed+1+uint64(k)).Instances...)
	}
	r := sim.NewRand(seed ^ 0xa55a)
	r.Shuffle(len(e.insts), func(i, j int) { e.insts[i], e.insts[j] = e.insts[j], e.insts[i] })
	for _, inst := range e.insts {
		e.requests += len(inst.Requests)
	}
	e.sys = corepythia.New(e.gen.DB(), corepythia.DefaultConfig())

	// Arrivals: one query every (mean stand-alone elapsed)/overlap of virtual
	// time, jittered by the seed, so about `overlap` queries run at once.
	far := make([]sim.Duration, len(e.insts))
	for i := range far {
		far[i] = time.Duration(i) * time.Hour
	}
	solo := e.sys.Run(e.insts, far, nil)
	gap := solo.TotalElapsed() / time.Duration(len(e.insts)*overlap)
	e.arrivals = make([]sim.Duration, len(e.insts))
	for i := range e.arrivals {
		e.arrivals[i] = time.Duration(i)*gap + time.Duration(r.Int63n(int64(gap)+1))
	}

	lossy := make(map[*workload.Instance][]storage.PageID, len(e.insts))
	for _, inst := range e.insts {
		lossy[inst] = lossySet(e.gen.DB().Registry, inst.Pages, r)
	}
	e.strategies = []corepythia.PrefetchFunc{
		nil,
		baselines.Oracle,
		func(inst *workload.Instance) []storage.PageID { return lossy[inst] },
	}
	return e
}

// lossySet perturbs an exact page set the way an imperfect predictor does: a
// seeded lossyShare of the pages is dropped and as many pages the query never
// touches, from the same objects, are added. It drives the paths the oracle
// never reaches: wasted prefetches, their evictions, and foreground reads of
// the pages that were dropped.
func lossySet(reg *storage.Registry, truth []storage.PageID, r *sim.Rand) []storage.PageID {
	in := make(map[storage.PageID]bool, len(truth))
	for _, p := range truth {
		in[p] = true
	}
	var out []storage.PageID
	for _, p := range truth {
		if r.Float64() >= lossyShare {
			out = append(out, p)
		}
	}
	for added, tries := 0, 0; added < int(lossyShare*float64(len(truth))) && tries < 8*len(truth); tries++ {
		obj := reg.Lookup(truth[r.Intn(len(truth))].Object)
		p := storage.PageID{Object: obj.ID, Page: storage.PageNum(r.Intn(int(obj.Pages)))}
		if !in[p] {
			in[p] = true
			out = append(out, p)
			added++
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// runDigest hashes everything simulated about a pass: per-query virtual times
// and the buffer, OS-cache and device counters. The simulator is
// deterministic, so a strategy's digest must be the same on every pass.
func runDigest(res *replay.RunResult) uint64 {
	h := fnv.New64a()
	for i := range res.Queries {
		q := &res.Queries[i]
		fmt.Fprint(h, q.ID, q.Start, q.End, q.Elapsed, q.BufferHits, q.OSCopies, q.DiskReads, q.Prefetched, q.PrefetchSkip, q.WindowStalls)
	}
	fmt.Fprint(h, res.Buffer, res.OS, res.Disk, res.End)
	return h.Sum64()
}

func runReplay(cfg config) (*workloadResult, error) {
	res := &workloadResult{Name: cfg.Workload, EndToEnd: metricSet{}, PerLayer: metricSet{}}
	chk := &checker{}

	var env *replayEnv
	setup := func() error {
		env = setupReplay(cfg.Seed, cfg.Scale)
		return nil
	}
	if err := cfg.setUp(res.EndToEnd, setup); err != nil {
		return nil, err
	}
	if cfg.untraced() {
		segs := timedPhase(cfg.phase(), func(_ int, d time.Duration) []opSample {
			return sequential(d, func() time.Duration { return env.round(nil, chk) })
		})
		if err := summarize(segs, res.EndToEnd); err != nil {
			return nil, err
		}
	}
	if cfg.traced() {
		if err := env.traced(cfg, chk, res); err != nil {
			return nil, err
		}
	}
	chk.into(res)
	return res, nil
}

// round is one operation: the query stream replayed once under each strategy,
// and every pass's digest checked against the first round's.
func (e *replayEnv) round(t *tracer, chk *checker) time.Duration {
	t0 := time.Now()
	root := t.start("round", -1, e.rounds)
	for k, name := range strategyNames {
		p0 := time.Now()
		t.in("replay.run."+name, root, e.rounds, func() { e.last[k] = e.sys.Run(e.insts, e.arrivals, e.strategies[k]) })
		e.passNS[k] = append(e.passNS[k], float64(time.Since(p0)))
	}
	t.end(root)
	lat := time.Since(t0)
	for k, name := range strategyNames {
		d := runDigest(e.last[k])
		if e.rounds == 0 {
			e.first[k] = d
		}
		chk.check(d == e.first[k] && len(e.last[k].Queries) == len(e.insts), "round %d %s: digest %016x, first was %016x", e.rounds, name, d, e.first[k])
	}
	e.rounds++
	return lat
}

// traced is the replay workload's per-layer run: rounds with a span around
// each pass, the simulated results of the last round, a pass with an event
// recorder attached, and the buffer pool and OS cache driven on their own.
func (e *replayEnv) traced(cfg config, chk *checker, res *workloadResult) error {
	L := res.PerLayer
	tr := newTracer()
	for k := range e.passNS {
		e.passNS[k] = nil // per-pass times of the traced rounds only
	}
	var tracedMS, plainMS []float64
	start := time.Now()
	for i := 0; i < cfg.Scale.TracedOps && (i < 2 || time.Since(start) < cfg.phase()/2); i++ {
		if i%2 == 0 {
			tracedMS = append(tracedMS, ms(e.round(tr, chk)))
		} else {
			plainMS = append(plainMS, ms(e.round(nil, chk)))
		}
	}
	L.set("trace.overhead_ratio", median(tracedMS)/median(plainMS))
	elapsed := make([]float64, len(strategyNames))
	for k, name := range strategyNames {
		L.setFrom("replay.run_ns_per_request."+name, median(e.passNS[k])/float64(e.requests), len(e.passNS[k]), nil)
		elapsed[k] = float64(e.last[k].TotalElapsed())
		L.set("replay.sim_elapsed_ns."+name, elapsed[k])
		tr.count("replay.page_requests."+name, int64(e.requests)*int64(len(e.passNS[k])))
	}
	L.set("replay.page_requests", float64(e.requests))
	L.set("replay.sim_speedup_oracle", elapsed[0]/elapsed[1])
	L.set("replay.sim_speedup_lossy", elapsed[0]/elapsed[2])
	lossy := e.last[2]
	if lossy.Buffer.PrefetchedIn > 0 {
		L.set("replay.prefetch_wasted_ratio", float64(lossy.Buffer.PrefetchWasted)/float64(lossy.Buffer.PrefetchedIn))
	}
	var disk uint64
	for i := range lossy.Queries {
		disk += lossy.Queries[i].DiskReads
	}
	L.set("replay.foreground_disk_reads", float64(disk))
	L.set("buffer.hit_ratio", lossy.Buffer.HitRatio())
	L.set("buffer.evictions", float64(lossy.Buffer.Evictions))
	L.set("oscache.hit_ratio", lossy.OS.HitRatio())
	L.set("oscache.readahead_pages", float64(lossy.OS.ReadaheadPages))

	// The same lossy pass with an event recorder attached, against without.
	counters := &obs.Counters{}
	ocfg := e.sys.Config()
	ocfg.Recorder = counters
	observed := corepythia.New(e.gen.DB(), ocfg)
	var obsNS, plainNS []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		e.sys.Run(e.insts, e.arrivals, e.strategies[2])
		plainNS = append(plainNS, float64(time.Since(t0)))
		counters.Reset()
		t0 = time.Now()
		got := observed.Run(e.insts, e.arrivals, e.strategies[2])
		obsNS = append(obsNS, float64(time.Since(t0)))
		chk.check(runDigest(got) == e.first[2] && counters.Get(obs.PrefetchWasted) == lossy.Buffer.PrefetchWasted,
			"observed lossy pass %d: recorder changed the simulation or disagrees with buffer stats", i)
	}
	L.set("replay.observed_overhead_ratio", median(obsNS)/median(plainNS))

	e.probeCaches(L, tr)
	L.set("proc.alloc_bytes_per_op", allocPerCall(func() { e.round(nil, chk) }))
	probeWorkloadBuild(L, e.gen, cfg.Scale.ReplayPerTpl, cfg.Seed+9)
	return finishTrace(cfg, tr, "round", res)
}

// probeCaches drives the buffer pool and the OS cache directly with the
// recorded page-request string of the whole stream, at the sizes the replay
// uses, and reports host time per call.
func (e *replayEnv) probeCaches(L metricSet, tr *tracer) {
	rc := e.sys.Config().Replay
	reg := e.gen.DB().Registry

	var bufNS []float64
	for rep := 0; rep < 5; rep++ {
		pool := buffer.New(rc.BufferPages, rc.BufferPolicy)
		t0 := time.Now()
		for _, inst := range e.insts {
			for k, rq := range inst.Requests {
				if !pool.Get(rq.Page) {
					pool.Insert(rq.Page, false)
				}
				if k%8 == 0 && pool.Pin(rq.Page) {
					pool.Unpin(rq.Page)
				}
			}
		}
		bufNS = append(bufNS, float64(time.Since(t0))/float64(e.requests))
	}
	L.setFrom("buffer.get_insert_ns", median(bufNS), len(bufNS), nil)

	var osNS []float64
	for rep := 0; rep < 5; rep++ {
		cache := oscache.New(rc.OSCachePages, rc.ReadaheadMax)
		t0 := time.Now()
		for _, inst := range e.insts {
			stream := cache.NewStream()
			for _, rq := range inst.Requests {
				cache.Read(stream, rq.Page, reg.Lookup(rq.Page.Object).Pages)
			}
		}
		osNS = append(osNS, float64(time.Since(t0))/float64(e.requests))
	}
	L.setFrom("oscache.read_ns", median(osNS), len(osNS), nil)
	tr.count("buffer.probe_requests", int64(e.requests)*5)
}
