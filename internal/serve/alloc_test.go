package serve

import (
	"testing"

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
// The units mirror one cache-hit request end to end: fingerprint the plan and
// hit the prediction cache.
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
		c.put(key, []storage.PageID{{Object: 1, Page: 7}})
		if a := testing.AllocsPerRun(1000, func() {
			if _, hit := c.get(key); !hit {
				t.Fatal("seeded key missed")
			}
		}); a != 0 {
			t.Errorf("predCache.get hit allocates %v/op", a)
		}
	})
}

// TestWritePagesAllocsPerPlan: resolving a plan's pages to object names
// costs the same allocations for 64 pages as for one (the page slice; the
// race detector adds one of its own); only a page of an object the registry
// does not know formats its id. Fails if writePages formats every page's
// object again (one allocation per page) or grows the slice page by page.
func TestWritePagesAllocsPerPlan(t *testing.T) {
	srv, _ := testServer(t)
	// An id of one digit formats into a static string without allocating,
	// so the check takes the highest id, as served plans do.
	objs := srv.db.Registry.Objects()
	known := objs[len(objs)-1]
	if known.ID < 10 {
		t.Fatalf("highest object id %d has one digit; the check would not see a format", known.ID)
	}
	allocs := func(n int) float64 {
		pages := make([]storage.PageID, n)
		for i := range pages {
			pages[i] = storage.PageID{Object: known.ID, Page: storage.PageNum(i)}
		}
		return testing.AllocsPerRun(200, func() {
			var resp predictResponse
			srv.writePages(&resp, pages)
		})
	}
	one := allocs(1)
	if one > 2 {
		t.Errorf("one page: writePages allocates %v/op, want the page slice alone", one)
	}
	for _, n := range []int{8, 64} {
		if a := allocs(n); a != one {
			t.Errorf("%d pages: writePages allocates %v/op, one page %v", n, a, one)
		}
	}
	var resp predictResponse
	srv.writePages(&resp, []storage.PageID{{Object: known.ID, Page: 3}, {Object: 1 << 20, Page: 4}})
	if got := resp.Pages; len(got) != 2 || got[0].Object != known.Name || got[1].Object != "1048576" {
		t.Fatalf("pages %+v: want %s then the unknown object's id", got, known.Name)
	}
}
