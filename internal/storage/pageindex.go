package storage

// PageIndex maps resident pages to the slot their owner keeps them in. It is
// the one page table under both page caches (buffer.Pool and oscache.Cache):
// a dense row per object, indexed by page number, so a lookup is two bounds
// checks and one load, and the consecutive pages of a scan share cache lines.
// A row grows, by doubling, to cover the largest page put into it; nothing is
// allocated once every row covers its object's pages, which needs no registry
// of page counts.
//
// Slots are the caller's: non-negative indices into its own flat storage.
// The table never holds more than the capacity it was built for; putting one
// page more is a bookkeeping bug in the owner (both caches evict before they
// insert) and panics.
type PageIndex struct {
	// rows is indexed by ObjectID, then PageNum. A cell holds the slot plus
	// one, so the zero cell is empty and the zero PageID is a usable key.
	rows     [][]int32
	n        int
	capacity int
}

// NewPageIndex returns an empty index for up to capacity pages.
func NewPageIndex(capacity int) *PageIndex {
	if capacity <= 0 {
		panic("storage: non-positive PageIndex capacity")
	}
	return &PageIndex{capacity: capacity}
}

// Len returns the number of pages in the index.
func (x *PageIndex) Len() int { return x.n }

// cell returns p's cell, or nil when p lies past every row grown so far.
func (x *PageIndex) cell(p PageID) *int32 {
	if int(p.Object) < len(x.rows) {
		if row := x.rows[p.Object]; int(p.Page) < len(row) {
			return &row[p.Page]
		}
	}
	return nil
}

// Get returns the slot stored for p.
//
//pythia:noalloc
func (x *PageIndex) Get(p PageID) (slot int32, ok bool) {
	if c := x.cell(p); c != nil && *c != 0 {
		return *c - 1, true
	}
	return 0, false
}

// Put stores slot for p, replacing the slot of a page already present.
//
//pythia:noalloc
func (x *PageIndex) Put(p PageID, slot int32) {
	c := x.cell(p)
	if c == nil {
		c = x.grow(p)
	}
	if *c == 0 {
		if x.n == x.capacity {
			panic("storage: PageIndex over capacity")
		}
		x.n++
	}
	*c = slot + 1
}

// Delete removes p; an absent page is ignored.
//
//pythia:noalloc
func (x *PageIndex) Delete(p PageID) {
	if c := x.cell(p); c != nil && *c != 0 {
		*c = 0
		x.n--
	}
}

// grow extends the table to cover p and returns p's (empty) cell: the rows
// to p.Object, and p's row by doubling, from 16 cells, until it reaches
// p.Page.
func (x *PageIndex) grow(p PageID) *int32 {
	if int(p.Object) >= len(x.rows) {
		x.rows = append(x.rows, make([][]int32, int(p.Object)+1-len(x.rows))...)
	}
	row := x.rows[p.Object]
	n := max(2*len(row), 16)
	for n <= int(p.Page) {
		n *= 2
	}
	grown := make([]int32, n)
	copy(grown, row)
	x.rows[p.Object] = grown
	return &grown[p.Page]
}
