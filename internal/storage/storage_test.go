package storage

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRegistryAssignsUniqueIDs(t *testing.T) {
	r := NewRegistry()
	a := r.Register("store_sales", KindTable, 100)
	b := r.Register("store_sales_pk", KindIndex, 10)
	if a.ID == b.ID {
		t.Fatal("duplicate object IDs")
	}
	if a.ID == InvalidObject || b.ID == InvalidObject {
		t.Fatal("registry assigned the invalid ID")
	}
	if r.Lookup(a.ID) != a || r.LookupName("store_sales_pk") != b {
		t.Fatal("lookup mismatch")
	}
	if r.Lookup(999) != nil || r.Lookup(InvalidObject) != nil || r.LookupName("nope") != nil {
		t.Fatal("lookup of unknown object should be nil")
	}
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Register("t", KindTable, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	r.Register("t", KindTable, 2)
}

func TestRegistryObjectsOrderAndTotal(t *testing.T) {
	r := NewRegistry()
	names := []string{"a", "b", "c"}
	for i, n := range names {
		r.Register(n, KindTable, PageNum(10*(i+1)))
	}
	objs := r.Objects()
	if len(objs) != 3 {
		t.Fatalf("Objects() returned %d", len(objs))
	}
	for i, o := range objs {
		if o.Name != names[i] {
			t.Fatalf("objects out of ID order: %v", objs)
		}
	}
	if got := r.TotalPages(); got != 60 {
		t.Fatalf("TotalPages = %d, want 60", got)
	}
}

func TestPageIDOrdering(t *testing.T) {
	cases := []struct {
		a, b PageID
		less bool
	}{
		{PageID{1, 5}, PageID{1, 6}, true},
		{PageID{1, 6}, PageID{1, 5}, false},
		{PageID{1, 99}, PageID{2, 0}, true},
		{PageID{2, 0}, PageID{1, 99}, false},
		{PageID{1, 5}, PageID{1, 5}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Fatalf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
		want := 0
		switch {
		case c.less:
			want = -1
		case c.a != c.b:
			want = 1
		}
		if got := c.a.Compare(c.b); got != want {
			t.Fatalf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, want)
		}
	}
}

// TestRequestIs16Bytes: a request's size is what a workload's stored
// streams cost per page access.
func TestRequestIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n != 16 {
		t.Fatalf("Request is %d bytes, want 16", n)
	}
}

func TestPageIDLessIsStrictOrder(t *testing.T) {
	if err := quick.Check(func(ao, ap, bo, bp uint32) bool {
		a := PageID{ObjectID(ao), PageNum(ap)}
		b := PageID{ObjectID(bo), PageNum(bp)}
		// Antisymmetry and totality: exactly one of <, >, == holds.
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		switch {
		case a == b:
			return !a.Less(b) && !b.Less(a) && a.Compare(b) == 0
		default:
			return a.Less(b) != b.Less(a)
		}
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestObjectPageIDFor(t *testing.T) {
	r := NewRegistry()
	o := r.Register("t", KindTable, 10)
	p := o.PageIDFor(9)
	if p.Object != o.ID || p.Page != 9 {
		t.Fatalf("PageIDFor = %v", p)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range PageIDFor did not panic")
		}
	}()
	o.PageIDFor(10)
}

func TestRowPage(t *testing.T) {
	if RowPage(0, 100) != 0 || RowPage(99, 100) != 0 || RowPage(100, 100) != 1 {
		t.Fatal("RowPage packing incorrect")
	}
	if RowPage(12345, 7) != PageNum(12345/7) {
		t.Fatal("RowPage arbitrary packing incorrect")
	}
}

func TestObjectKindString(t *testing.T) {
	if KindTable.String() != "table" || KindIndex.String() != "index" {
		t.Fatal("ObjectKind strings wrong")
	}
}

func TestPageIDString(t *testing.T) {
	if got := (PageID{3, 17}).String(); got != "3:17" {
		t.Fatalf("String = %q", got)
	}
}
