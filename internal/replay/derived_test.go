package replay

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/buffer"
	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/span"
	"github.com/pythia-db/pythia/internal/trace"
)

// parentTimelines holds the FNV-64a digest of ExportChrome's bytes for each
// configuration below, recorded at commit 355a0d4 — the last one whose
// buffer pool, OS cache and runners placed every timeline mark by hand. To
// regenerate, copy this file into a checkout of that commit, zero the table
// and run
//
//	go test ./internal/replay -run TestDerivedTimelineMatchesParent
//
// every mismatch prints its row.
var parentTimelines = map[string]uint64{
	"clock/clean/q1":  0x3c044a824f8dd545,
	"clock/clean/q4":  0xa868a2743b832d2a,
	"clock/faulty/q1": 0x89612b62e1da7a0,
	"clock/faulty/q4": 0x39f922d3f42737ce,
	"lru/clean/q1":    0x6e87c1a50e0f4a9a,
	"lru/clean/q4":    0x1b89498b8ee2a4d5,
	"lru/faulty/q1":   0xb2727999d14eb9ec,
	"lru/faulty/q4":   0xa53ba36dbe772589,
	"mru/clean/q1":    0x5de9105401dd56c4,
	"mru/clean/q4":    0xb0fe7dc73d6212b9,
	"mru/faulty/q1":   0xed4a2234601e16c1,
	"mru/faulty/q4":   0x9c9be01cd3ac1092,
}

// TestDerivedTimelineMatchesParent is the differential test of the mark
// derivation: the tracer sees only the stamped obs stream, and the timeline
// it exports must be byte-for-byte what the hand-placed marks produced, on
// runs the two committed goldens do not reach — every replacement policy, a
// pool small enough that prefetched frames are evicted unused, overlapping
// queries, and a fault plan under which prefetches are abandoned and the
// executor falls back, so all three stash-linked marks appear.
func TestDerivedTimelineMatchesParent(t *testing.T) {
	reg := testRegistry()
	policies := []struct {
		name   string
		policy buffer.Policy
	}{{"clock", buffer.Clock}, {"lru", buffer.LRU}, {"mru", buffer.MRU}}
	linked := map[string]bool{}
	for _, p := range policies {
		for _, faulty := range []bool{false, true} {
			for _, nq := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/q%d", p.name, map[bool]string{false: "clean", true: "faulty"}[faulty], nq)
				c := Config{BufferPages: 96, OSCachePages: 256, BufferPolicy: p.policy, Tracer: span.New()}
				if faulty {
					c.Fault = fault.New(fault.Plan{PrefetchReadRate: 0.4}, 11)
				}
				var specs []QuerySpec
				for i := 0; i < nq; i++ {
					reqs := script(reg, 120, 160, uint64(300+i))
					q := QuerySpec{ID: fmt.Sprintf("q%d", i), Requests: reqs, Window: 48,
						Arrival: sim.Duration(i) * 300 * time.Microsecond}
					if i != 3 {
						q.Prefetch = trace.Process(reqs)
					}
					specs = append(specs, q)
				}
				Run(reg, c, specs)
				var out bytes.Buffer
				if err := span.ExportChrome(&out, c.Tracer.Spans()); err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				h.Write(out.Bytes())
				if got := h.Sum64(); got != parentTimelines[name] {
					t.Errorf("timeline diverged from the parent's:\t%q: %#x,", name, got)
				}
				for _, line := range bytes.Split(out.Bytes(), []byte("\n")) {
					for _, mark := range []string{"prefetch_hit", "prefetch_wasted", "fallback_sync_read"} {
						if bytes.Contains(line, []byte(`"name":"`+mark+`"`)) && bytes.Contains(line, []byte(`"link":`)) {
							linked[mark] = true
						}
					}
				}
			}
		}
	}
	if len(linked) != 3 {
		t.Errorf("configurations exercised linked marks %v, want all of prefetch_hit, prefetch_wasted, fallback_sync_read", linked)
	}
}
