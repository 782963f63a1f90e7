// Package storage defines the page-granular identity model shared by every
// layer of the system: database objects (heap tables and indexes), page
// numbers within an object's file, and page requests.
//
// The simulator is trace-driven, so pages carry no materialized bytes; what
// matters — and what Pythia predicts — is *which* (object, page) pairs a
// query touches and in what order. Tuple values are produced by deterministic
// column generators in the catalog package instead of being stored on pages,
// which lets the DSB-style datasets scale without allocating gigabytes.
package storage

import (
	"cmp"
	"fmt"
)

// ObjectID identifies a database object (heap table or index) uniquely
// within a database, mirroring Postgres' relfilenode.
type ObjectID uint32

// InvalidObject is the zero ObjectID, never assigned to a real object.
const InvalidObject ObjectID = 0

// PageNum is a block offset within an object's file, mirroring Postgres'
// BlockNumber.
type PageNum uint32

// PageID names one disk block: an object and a block offset within it.
type PageID struct {
	Object ObjectID
	Page   PageNum
}

// String renders the page as object:page for logs and test failures.
func (p PageID) String() string { return fmt.Sprintf("%d:%d", p.Object, p.Page) }

// Compare orders pages by (object, offset) — the file storage order the
// prefetcher uses so that its reads cooperate with OS readahead. It is
// total, so any sort by it has one result: slices.SortFunc(pages,
// PageID.Compare).
func (p PageID) Compare(q PageID) int {
	if c := cmp.Compare(p.Object, q.Object); c != 0 {
		return c
	}
	return cmp.Compare(p.Page, q.Page)
}

// Less reports whether p precedes q in Compare's order.
func (p PageID) Less(q PageID) bool { return p.Compare(q) < 0 }

// ObjectKind distinguishes heap tables from indexes; Pythia trains separate
// models per kind (one for the base table, one per index).
type ObjectKind uint8

const (
	// KindTable marks a heap table object.
	KindTable ObjectKind = iota
	// KindIndex marks a B+tree index object.
	KindIndex
)

// String returns "table" or "index".
func (k ObjectKind) String() string {
	if k == KindIndex {
		return "index"
	}
	return "table"
}

// Object describes the on-disk geometry of one database object.
type Object struct {
	ID    ObjectID
	Name  string
	Kind  ObjectKind
	Pages PageNum // number of blocks in the object's file
}

// PageIDFor returns the PageID for block n of the object. It panics if n is
// out of range, which always indicates a geometry bug upstream.
func (o *Object) PageIDFor(n PageNum) PageID {
	if n >= o.Pages {
		panic(fmt.Sprintf("storage: page %d out of range for %s (%d pages)", n, o.Name, o.Pages))
	}
	return PageID{Object: o.ID, Page: n}
}

// Registry assigns ObjectIDs and resolves them back to objects. The catalog
// builds one per database.
type Registry struct {
	// objects is indexed by ObjectID: IDs are handed out densely from 1, so
	// element 0 is the nil that InvalidObject resolves to.
	objects []*Object
	byName  map[string]*Object
}

// NewRegistry returns an empty registry; the first allocated ID is 1 so that
// the zero PageID is always invalid.
func NewRegistry() *Registry {
	return &Registry{
		objects: []*Object{nil},
		byName:  make(map[string]*Object),
	}
}

// Register allocates an ID for a new object. Names must be unique; Register
// panics on duplicates because object creation is program-controlled, not
// input-controlled.
func (r *Registry) Register(name string, kind ObjectKind, pages PageNum) *Object {
	if _, dup := r.byName[name]; dup {
		panic("storage: duplicate object name " + name)
	}
	o := &Object{ID: ObjectID(len(r.objects)), Name: name, Kind: kind, Pages: pages}
	r.objects = append(r.objects, o)
	r.byName[name] = o
	return o
}

// Lookup returns the object with the given ID, or nil.
func (r *Registry) Lookup(id ObjectID) *Object {
	if int(id) >= len(r.objects) {
		return nil
	}
	return r.objects[id]
}

// LookupName returns the object with the given name, or nil.
func (r *Registry) LookupName(name string) *Object { return r.byName[name] }

// Objects returns all registered objects in ID order.
func (r *Registry) Objects() []*Object {
	return append([]*Object(nil), r.objects[1:]...)
}

// TotalPages returns the sum of page counts over all objects — the "database
// size" used to size buffer pools as a fraction of data (the paper uses 1%).
func (r *Registry) TotalPages() int {
	total := 0
	for _, o := range r.objects[1:] {
		total += int(o.Pages)
	}
	return total
}

// Request is one page access issued by the executor. Sequential marks
// requests produced by sequential scans (heap pages read in file order);
// Algorithm 1 strips these from training traces, and the OS readahead model
// services them from the page cache.
type Request struct {
	Page PageID
	// Sequential is true for pages read by a sequential scan.
	Sequential bool
	// Tuples is the number of tuples the executor processed since the
	// previous request; the replay engine charges CPU for them, which sets
	// the non-I/O floor on query runtime. It is 32 bits so that a request
	// is 16 bytes: the stored streams are most of a workload's memory.
	Tuples int32
}

// RowPage maps a zero-based row number to its heap block given the table's
// rows-per-page packing.
func RowPage(row int64, rowsPerPage int) PageNum {
	if rowsPerPage <= 0 {
		panic("storage: non-positive rowsPerPage")
	}
	return PageNum(row / int64(rowsPerPage))
}
