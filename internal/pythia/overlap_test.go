package pythia

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/baselines"
	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/replay"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/workload"
)

// overlapStream is the replay benchmark's query stream: DSB at SF 20, 24
// instances of each template shuffled by the seed.
type overlapStream struct {
	sys   *System
	insts []*workload.Instance
	solo  sim.Duration // the queries' total elapsed time, run one at a time
	r     sim.Rand     // the seed's generator after the shuffle
}

// newOverlapStream builds the stream for seed on a system that feeds rec
// (nil for none).
func newOverlapStream(seed uint64, rec obs.Recorder) *overlapStream {
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 20, Seed: seed})
	s := &overlapStream{}
	for k, tpl := range g.Templates() {
		s.insts = append(s.insts, g.Workload(tpl, 24, seed+1+uint64(k)).Instances...)
	}
	r := sim.NewRand(seed ^ 0xa55a)
	r.Shuffle(len(s.insts), func(i, j int) { s.insts[i], s.insts[j] = s.insts[j], s.insts[i] })
	s.r = *r
	cfg := DefaultConfig()
	cfg.Recorder = rec
	s.sys = New(g.DB(), cfg)
	far := make([]sim.Duration, len(s.insts))
	for i := range far {
		far[i] = time.Duration(i) * time.Hour
	}
	s.solo = s.sys.Run(s.insts, far, nil).TotalElapsed()
	return s
}

// arrivals spaces the queries so that about overlap of them run at once:
// one every solo/(n·overlap) of virtual time, jittered by the seed.
func (s *overlapStream) arrivals(overlap int) []sim.Duration {
	r := s.r
	gap := s.solo / time.Duration(len(s.insts)*overlap)
	out := make([]sim.Duration, len(s.insts))
	for i := range out {
		out[i] = time.Duration(i)*gap + time.Duration(r.Int63n(int64(gap)+1))
	}
	return out
}

// resultDigest hashes everything a replay with a recorder simulates: each
// query's times, counters, degradation flags and per-kind event snapshot,
// then the run's cache and device totals.
func resultDigest(res *replay.RunResult) uint64 {
	h := fnv.New64a()
	for i := range res.Queries {
		q := &res.Queries[i]
		fmt.Fprint(h, q.ID, len(q.Prefetch), q.Start, q.End, q.Elapsed, q.BufferHits, q.OSCopies, q.DiskReads,
			q.Prefetched, q.PrefetchSkip, q.WindowStalls, q.ReadFailures, q.PrefetchRetries,
			q.PrefetchAbandons, q.FallbackSyncReads, q.PrefetchGaveUp, *q.Counters)
	}
	fmt.Fprint(h, res.Buffer, res.OS, res.Disk, res.End, res.ReadFailures, res.PrefetchRetries,
		res.PrefetchAbandons, res.FallbackSyncReads, res.InferenceDeadlineMisses)
	return h.Sum64()
}

// parentOverlapDigests holds resultDigest for every (seed, overlap, policy)
// below, recorded at commit cf86645: the last one whose event engine kept
// query arrivals in its heap, dispatched from a one-slot register, and
// scheduled every query step through the queue. To regenerate, zero the
// table and run
//
//	go test ./internal/pythia -run TestOverlappedReplayMatchesParent
//
// every mismatch prints its row.
var parentOverlapDigests = map[string]uint64{
	"s1/o1/none":   0x467bc5faadd15426,
	"s1/o1/oracle": 0xb86ccbb0b0d187c3,
	"s1/o2/none":   0xa9719fa38213ea6f,
	"s1/o2/oracle": 0x856d35df89d798cd,
	"s1/o4/none":   0xfed305dfa09f1526,
	"s1/o4/oracle": 0x5e448c3ca9c18b94,
	"s1/o8/none":   0xb87f6c091af6e48f,
	"s1/o8/oracle": 0x2ce755d1a6ccca31,
	"s2/o1/none":   0x164118ddecebdd38,
	"s2/o1/oracle": 0x4b1eb3c6845a2ab1,
	"s2/o2/none":   0xdd4dfd67d8a620f0,
	"s2/o2/oracle": 0x249fd3b6e7e5950b,
	"s2/o4/none":   0xbacf2993c2ebf053,
	"s2/o4/oracle": 0xaad50ebaebf362ea,
	"s2/o8/none":   0x31ea8f08b204e45,
	"s2/o8/oracle": 0xf73101f89e7ccb3d,
	"s3/o1/none":   0x156ffa7b8181ad6f,
	"s3/o1/oracle": 0xfcc0d32ac6e2fcff,
	"s3/o2/none":   0x6b8c9e42bd4a0361,
	"s3/o2/oracle": 0xc9199089aab1a54b,
	"s3/o4/none":   0xc65c9b1c3f33d0e,
	"s3/o4/oracle": 0x91eff4b886470487,
	"s3/o8/none":   0x8fe70f2c496a38c2,
	"s3/o8/oracle": 0xf191638b4610584b,
}

// TestOverlappedReplayMatchesParent pins multi-query replays at the replay
// benchmark's shape bit for bit: seeds 1–3, overlap 1, 2, 4 and 8, without
// prefetching and under the oracle. Overlapping queries are where the event
// engine's ordering decides the result: same-instant ties between a query's
// next step, another query's arrival and a prefetched page landing.
func TestOverlappedReplayMatchesParent(t *testing.T) {
	policies := []struct {
		name     string
		strategy PrefetchFunc
	}{{"none", nil}, {"oracle", baselines.Oracle}}
	for seed := uint64(1); seed <= 3; seed++ {
		s := newOverlapStream(seed, &obs.Counters{})
		for _, overlap := range []int{1, 2, 4, 8} {
			arr := s.arrivals(overlap)
			for _, p := range policies {
				name := fmt.Sprintf("s%d/o%d/%s", seed, overlap, p.name)
				if got := resultDigest(s.sys.Run(s.insts, arr, p.strategy)); got != parentOverlapDigests[name] {
					t.Errorf("replay diverged from the parent's:\t%q: %#x,", name, got)
				}
			}
		}
	}
}

// BenchmarkRunOverlapped replays the replay benchmark's stream (seed 1,
// about two queries in flight, no prefetching, no recorder): the event
// engine's heap, the arrivals and the interleaving of queries are all on
// the path.
//
//	go test -run=NONE -bench=BenchmarkRunOverlapped ./internal/pythia/
func BenchmarkRunOverlapped(b *testing.B) {
	s := newOverlapStream(1, nil)
	arr := s.arrivals(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.sys.Run(s.insts, arr, nil)
	}
}
