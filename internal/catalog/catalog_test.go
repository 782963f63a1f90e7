package catalog

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/pythia-db/pythia/internal/index"
	"github.com/pythia-db/pythia/internal/storage"
)

func TestSerial(t *testing.T) {
	g := Serial{Start: 10}
	if g.Value(0) != 10 || g.Value(5) != 15 {
		t.Fatal("Serial values wrong")
	}
}

func TestUniformDeterministicAndInRange(t *testing.T) {
	g := Uniform{Lo: 100, Hi: 200, Seed: 7}
	for row := int64(0); row < 1000; row++ {
		v := g.Value(row)
		if v < 100 || v >= 200 {
			t.Fatalf("Uniform out of range: %d", v)
		}
		if v != g.Value(row) {
			t.Fatal("Uniform not deterministic")
		}
	}
	if (Uniform{Lo: 5, Hi: 5}).Value(3) != 5 {
		t.Fatal("degenerate Uniform should return Lo")
	}
}

func TestUniformCoversDomain(t *testing.T) {
	g := Uniform{Lo: 0, Hi: 10, Seed: 3}
	seen := map[int64]bool{}
	for row := int64(0); row < 500; row++ {
		seen[g.Value(row)] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Uniform covered %d/10 values", len(seen))
	}
}

func TestZipfSkewAndDeterminism(t *testing.T) {
	g := NewZipf(1000, 50, 1.3, 9)
	counts := map[int64]int{}
	for row := int64(0); row < 20000; row++ {
		v := g.Value(row)
		if v < 1000 || v >= 1050 {
			t.Fatalf("Zipf out of domain: %d", v)
		}
		counts[v]++
		if v != g.Value(row) {
			t.Fatal("Zipf not deterministic")
		}
	}
	if counts[1000] <= counts[1025] {
		t.Fatalf("Zipf not skewed: head=%d mid=%d", counts[1000], counts[1025])
	}
	lo, hi := g.Domain()
	if lo != 1000 || hi != 1050 {
		t.Fatalf("Zipf domain = [%d,%d)", lo, hi)
	}
}

// TestZipfWithSeedMatchesNewZipf: a sampler re-seeded from a shared table
// draws what a sampler built for that seed draws, and leaves the original's
// seed alone.
func TestZipfWithSeedMatchesNewZipf(t *testing.T) {
	base := NewZipf(0, 30000, 0.6, 1)
	for _, seed := range []uint64{2, 0x9e3779b97f4a7c15, 1 << 63} {
		got, want := base.WithSeed(seed), NewZipf(0, 30000, 0.6, seed)
		for row := int64(0); row < 100000; row++ {
			if g, w := got.Value(row), want.Value(row); g != w {
				t.Fatalf("seed %#x row %d: WithSeed gives %d, NewZipf %d", seed, row, g, w)
			}
		}
		if lo, hi := got.Domain(); lo != 0 || hi != 30000 {
			t.Fatalf("seed %#x: domain [%d,%d)", seed, lo, hi)
		}
	}
	if base.Seed != 1 {
		t.Fatalf("WithSeed changed the original's seed to %d", base.Seed)
	}
}

func TestCorrelatedTracksBase(t *testing.T) {
	base := Uniform{Lo: 0, Hi: 100, Seed: 1}
	c := Correlated{Base: base, Transform: func(v int64) int64 { return v * 2 }, Lo: 0, Hi: 200}
	for row := int64(0); row < 100; row++ {
		if c.Value(row) != base.Value(row)*2 {
			t.Fatal("Correlated does not track base")
		}
	}
}

func TestNoisyStaysNearBase(t *testing.T) {
	base := Serial{}
	n := Noisy{Base: base, Range: 5, Seed: 2}
	for row := int64(0); row < 200; row++ {
		d := n.Value(row) - base.Value(row)
		if d < 0 || d >= 5 {
			t.Fatalf("noise out of range: %d", d)
		}
	}
	exact := Noisy{Base: base, Range: 0}
	if exact.Value(7) != 7 {
		t.Fatal("zero-range Noisy should be exact")
	}
	lo, hi := n.Domain()
	if lo != 0 || hi != math.MaxInt64 {
		t.Fatalf("Noisy domain = [%d,%d)", lo, hi)
	}
}

func newTestDB() (*Database, *Relation) {
	db := NewDatabase()
	rel := db.AddRelation("item", 1000, 10, []Column{
		{Name: "id", Gen: Serial{Start: 1}},
		{Name: "price", Gen: Uniform{Lo: 1, Hi: 100, Seed: 5}},
	})
	return db, rel
}

func TestAddRelationGeometry(t *testing.T) {
	_, rel := newTestDB()
	if rel.Heap.Pages != 100 {
		t.Fatalf("heap pages = %d, want 100", rel.Heap.Pages)
	}
	if rel.Heap.Kind != storage.KindTable {
		t.Fatal("heap kind wrong")
	}
	if rel.HeapPage(0).Page != 0 || rel.HeapPage(999).Page != 99 {
		t.Fatal("HeapPage mapping wrong")
	}
	db := NewDatabase()
	tiny := db.AddRelation("tiny", 0, 10, nil)
	if tiny.Heap.Pages != 1 {
		t.Fatal("empty relation should still occupy one page")
	}
}

func TestRelationValueAndErrors(t *testing.T) {
	_, rel := newTestDB()
	if rel.Value("id", 0) != 1 {
		t.Fatal("Value wrong")
	}
	if rel.ColumnIndex("price") != 1 || rel.ColumnIndex("nope") != -1 {
		t.Fatal("ColumnIndex wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unknown column did not panic")
			}
		}()
		rel.Value("nope", 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range row did not panic")
			}
		}()
		rel.Value("id", 1000)
	}()
}

func TestDuplicateRelationPanics(t *testing.T) {
	db, _ := newTestDB()
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate relation did not panic")
		}
	}()
	db.AddRelation("item", 10, 10, nil)
}

func TestDuplicateColumnPanics(t *testing.T) {
	db := NewDatabase()
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate column did not panic")
		}
	}()
	db.AddRelation("x", 10, 10, []Column{
		{Name: "a", Gen: Serial{}}, {Name: "a", Gen: Serial{}},
	})
}

func TestBuildIndexAgreesWithGenerator(t *testing.T) {
	db, rel := newTestDB()
	idx := db.BuildIndex(rel, "price", index.Config{LeafCap: 16, Fanout: 8})
	if err := idx.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if rel.IndexOn("price") != idx {
		t.Fatal("IndexOn lookup failed")
	}
	if len(rel.Indexes()) != 1 {
		t.Fatal("Indexes() wrong")
	}
	// Every row the index returns for a key must actually have that key.
	probe := idx.Tree.Scan(50, 60)
	if len(probe.Rows) == 0 {
		t.Fatal("probe found no rows for a 10% range over 1000 rows")
	}
	for _, row := range probe.Rows {
		v := rel.Value("price", row)
		if v < 50 || v > 60 {
			t.Fatalf("index returned row %d with price %d outside [50,60]", row, v)
		}
	}
	// And no qualifying row may be missing.
	want := 0
	for row := int64(0); row < rel.Rows; row++ {
		if v := rel.Value("price", row); v >= 50 && v <= 60 {
			want++
		}
	}
	if len(probe.Rows) != want {
		t.Fatalf("index returned %d rows, linear scan finds %d", len(probe.Rows), want)
	}
}

// Indexes returns build order, every call: Figure 12d builds
// predictor.Options.Groups from it, which fixes head order. Map order
// passes one-index relations by luck and fails this one almost surely.
func TestIndexesInBuildOrder(t *testing.T) {
	db := NewDatabase()
	rel := db.AddRelation("wide", 100, 10, []Column{
		{Name: "a", Gen: Serial{}},
		{Name: "b", Gen: Serial{}},
		{Name: "c", Gen: Serial{}},
	})
	built := []string{"b", "c", "a"}
	for _, col := range built {
		db.BuildIndex(rel, col, index.Config{LeafCap: 16, Fanout: 8})
	}
	for range 32 {
		ixs := rel.Indexes()
		if len(ixs) != len(built) {
			t.Fatalf("Indexes() returned %d indexes, want %d", len(ixs), len(built))
		}
		for i, ix := range ixs {
			if ix.Column != built[i] {
				t.Fatalf("Indexes()[%d] is on %s, want %s (build order %v)", i, ix.Column, built[i], built)
			}
		}
	}
}

func TestDatabaseRelationsOrder(t *testing.T) {
	db := NewDatabase()
	db.AddRelation("b", 1, 1, nil)
	db.AddRelation("a", 1, 1, nil)
	rels := db.Relations()
	if len(rels) != 2 || rels[0].Name != "b" || rels[1].Name != "a" {
		t.Fatal("Relations not in creation order")
	}
	if db.Relation("a") == nil || db.Relation("zz") != nil {
		t.Fatal("Relation lookup wrong")
	}
}

// Property: index probes over random ranges always agree with a linear scan
// of the generator, for skewed generators too.
func TestIndexLinearEquivalence(t *testing.T) {
	db := NewDatabase()
	rel := db.AddRelation("skewed", 2000, 17, []Column{
		{Name: "k", Gen: NewZipf(0, 40, 1.1, 77)},
	})
	idx := db.BuildIndex(rel, "k", index.Config{LeafCap: 13, Fanout: 5})
	if err := quick.Check(func(a, b uint8) bool {
		lo, hi := int64(a%45), int64(b%45)
		if lo > hi {
			lo, hi = hi, lo
		}
		got := len(idx.Tree.Scan(lo, hi).Rows)
		want := 0
		for row := int64(0); row < rel.Rows; row++ {
			if v := rel.Value("k", row); v >= lo && v <= hi {
				want++
			}
		}
		return got == want
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
