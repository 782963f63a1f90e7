package serve

import (
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/storage"
)

// TestServeHotPathAllocs pins the per-request units of the serving fast path
// at zero heap allocations per call. Every function exercised here carries
// //pythia:noalloc, so the static analyzer rejects the allocation *patterns*
// at vet time; this test closes the loop at runtime, catching anything the
// shallow analyzer cannot see (interface boxing inside callees, map growth,
// escape-analysis regressions from a toolchain bump).
//
// The units mirror one cache-hit request end to end: fingerprint the plan,
// check health admission, hit the prediction cache, and record the health
// outcome.
func TestServeHotPathAllocs(t *testing.T) {
	rec := &obs.AtomicCounters{}

	t.Run("fingerprint", func(t *testing.T) {
		ids := []int{3, 1, 4, 1, 5, 9, 2, 6}
		if a := testing.AllocsPerRun(1000, func() {
			_ = fingerprint("workload", ids)
		}); a != 0 {
			t.Errorf("fingerprint allocates %v/op", a)
		}
	})

	t.Run("predcache-hit", func(t *testing.T) {
		c := newPredCache(64, rec)
		key := fingerprint("workload", []int{3, 1, 4})
		c.put(key, []storage.PageID{{Object: 1, Page: 7}}, true)
		if a := testing.AllocsPerRun(1000, func() {
			if _, hit := c.get(key); !hit {
				t.Fatal("seeded key missed")
			}
		}); a != 0 {
			t.Errorf("predCache.get hit allocates %v/op", a)
		}
	})

	t.Run("health-steady-state", func(t *testing.T) {
		h := newHealth(time.Second, rec)
		if a := testing.AllocsPerRun(1000, func() {
			if !h.serving() {
				t.Fatal("healthy model not serving")
			}
			h.cacheHit()
			h.success()
		}); a != 0 {
			t.Errorf("health serving/cacheHit/success allocates %v/op", a)
		}
	})
}
