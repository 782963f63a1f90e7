package storage

import "math/bits"

// PageIndex maps resident pages to the slot their owner keeps them in. It is
// the one hash table under both page caches (buffer.Pool and oscache.Cache):
// a fixed-size open-addressing table sized once for the owner's capacity,
// with linear probing and backward-shift deletion, so a lookup is one
// multiply and — at the load factor of at most one half it is sized for —
// usually one 16-byte cell, a delete leaves no tombstone behind, and nothing
// is allocated after NewPageIndex.
//
// Slots are the caller's: non-negative indices into its own flat storage.
// The table never holds more than the capacity it was built for; putting one
// page more is a bookkeeping bug in the owner (both caches evict before they
// insert) and panics.
type PageIndex struct {
	cells    []indexCell
	shift    uint // 64 - log2(len(cells))
	n        int
	capacity int
}

// indexCell is one table position. ref is the slot plus one, so the zero cell
// is an empty one and every PageID — the zero PageID too — is a usable key.
type indexCell struct {
	key uint64
	ref int32
}

// NewPageIndex returns an empty index for up to capacity pages.
func NewPageIndex(capacity int) *PageIndex {
	if capacity <= 0 {
		panic("storage: non-positive PageIndex capacity")
	}
	log2 := bits.Len(uint(2*capacity - 1)) // of the power of two >= 2*capacity
	return &PageIndex{
		cells:    make([]indexCell, 1<<log2),
		shift:    uint(64 - log2),
		capacity: capacity,
	}
}

func packPage(p PageID) uint64 { return uint64(p.Object)<<32 | uint64(p.Page) }

// home is the Fibonacci hash of a key: the top bits of key × 2^64/φ, which
// spreads the consecutive page numbers of a scan across the table.
func (x *PageIndex) home(key uint64) int {
	return int(key * 0x9E3779B97F4A7C15 >> x.shift)
}

// Len returns the number of pages in the index.
func (x *PageIndex) Len() int { return x.n }

// Get returns the slot stored for p.
//
//pythia:noalloc
func (x *PageIndex) Get(p PageID) (slot int32, ok bool) {
	key, mask := packPage(p), len(x.cells)-1
	for i := x.home(key); ; i = (i + 1) & mask {
		c := x.cells[i]
		if c.ref == 0 {
			return 0, false
		}
		if c.key == key {
			return c.ref - 1, true
		}
	}
}

// Put stores slot for p, replacing the slot of a page already present.
//
//pythia:noalloc
func (x *PageIndex) Put(p PageID, slot int32) {
	key, mask := packPage(p), len(x.cells)-1
	for i := x.home(key); ; i = (i + 1) & mask {
		c := &x.cells[i]
		if c.ref == 0 {
			if x.n == x.capacity {
				panic("storage: PageIndex over capacity")
			}
			c.key, c.ref = key, slot+1
			x.n++
			return
		}
		if c.key == key {
			c.ref = slot + 1
			return
		}
	}
}

// Delete removes p; an absent page is ignored. The cells after p in its probe
// run are shifted back over the hole, so lookups never meet a tombstone.
//
//pythia:noalloc
func (x *PageIndex) Delete(p PageID) {
	key, mask := packPage(p), len(x.cells)-1
	i := x.home(key)
	for {
		c := x.cells[i]
		if c.ref == 0 {
			return
		}
		if c.key == key {
			break
		}
		i = (i + 1) & mask
	}
	// i is the hole. A later cell of the run moves back into it unless its
	// home lies cyclically in (hole, cell]: a probe starting there would
	// never pass the hole's position.
	for j := (i + 1) & mask; x.cells[j].ref != 0; j = (j + 1) & mask {
		if h := x.home(x.cells[j].key); (j-h)&mask >= (j-i)&mask {
			x.cells[i] = x.cells[j]
			i = j
		}
	}
	x.cells[i] = indexCell{}
	x.n--
}
