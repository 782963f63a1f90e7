// Package catalog describes databases: relations with typed columns, their
// heap geometry, and their indexes. Because the simulator is trace-driven,
// column values are not stored on pages; every column carries a
// deterministic generator that maps a row number to its value. This is what
// lets DSB-style datasets "scale" (the paper's SF 25/50/100 experiment)
// without materializing gigabytes — the access-pattern geometry scales, and
// that is all the prefetcher can observe. Values are still never stored per
// page: a column a scan filters on is indexed by value on its first scan
// (ValueIndex, 4 B per row plus 4 B per domain value), when its domain is
// narrow enough.
package catalog

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/pythia-db/pythia/internal/index"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
)

// Generator deterministically maps a row number to a column value.
type Generator interface {
	// Value returns the column value for the given zero-based row.
	Value(row int64) int64
	// Domain returns the half-open value range [lo, hi) the generator can
	// produce; the planner and workload generators use it to draw predicate
	// constants.
	Domain() (lo, hi int64)
}

func mix(seed, row uint64) uint64 { return sim.Mix64(seed ^ (row * 0x9e3779b97f4a7c15)) }

func mixFloat(seed, row uint64) float64 {
	return float64(mix(seed, row)>>11) / (1 << 53)
}

// Serial numbers rows sequentially starting at Start — the usual surrogate
// primary key.
type Serial struct{ Start int64 }

// Value returns Start + row.
func (s Serial) Value(row int64) int64 { return s.Start + row }

// Domain is unbounded in principle; generators report a wide range.
func (s Serial) Domain() (int64, int64) { return s.Start, math.MaxInt64 }

// Uniform draws values uniformly from [Lo, Hi), hashed per row.
type Uniform struct {
	Lo, Hi int64
	Seed   uint64
}

// Value returns the uniform value for row.
func (u Uniform) Value(row int64) int64 {
	span := u.Hi - u.Lo
	if span <= 0 {
		return u.Lo
	}
	return u.Lo + int64(mix(u.Seed, uint64(row))%uint64(span))
}

// Domain returns [Lo, Hi).
func (u Uniform) Domain() (int64, int64) { return u.Lo, u.Hi }

// Zipf draws values from [Lo, Lo+N) with Zipfian skew S — the paper uses DSB
// precisely because it adds skew and correlation that TPC-DS lacks. Rank 0
// (value Lo) is the most frequent. Sampling is by inverse CDF over a
// precomputed table, so values remain a pure function of the row.
type Zipf struct {
	Lo   int64
	N    int
	S    float64
	Seed uint64

	cdf []float64
}

// NewZipf precomputes the sampler's CDF table.
func NewZipf(lo int64, n int, s float64, seed uint64) *Zipf {
	if n <= 0 {
		panic("catalog: Zipf with non-positive N")
	}
	z := &Zipf{Lo: lo, N: n, S: s, Seed: seed, cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// WithSeed returns a sampler over z's distribution that draws with seed. It
// shares z's CDF table, which nothing writes after NewZipf, so its values are
// bit for bit those of NewZipf(z.Lo, z.N, z.S, seed) without the table's
// N calls to math.Pow.
func (z *Zipf) WithSeed(seed uint64) *Zipf {
	c := *z
	c.Seed = seed
	return &c
}

// Value returns the skewed value for row.
func (z *Zipf) Value(row int64) int64 {
	u := mixFloat(z.Seed, uint64(row))
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return z.Lo + int64(lo)
}

// Domain returns [Lo, Lo+N).
func (z *Zipf) Domain() (int64, int64) { return z.Lo, z.Lo + int64(z.N) }

// Correlated derives a value from another generator's output on the same
// row: Value(row) = Transform(Base.Value(row)). DSB's cross-column
// correlations (e.g. a date column correlated with a region column) are
// expressed this way, so predicates on the derived column select correlated
// row sets.
type Correlated struct {
	Base      Generator
	Transform func(int64) int64
	Lo, Hi    int64 // declared domain of the transformed values
}

// Value applies the transform to the base value.
func (c Correlated) Value(row int64) int64 { return c.Transform(c.Base.Value(row)) }

// Domain returns the declared transformed range.
func (c Correlated) Domain() (int64, int64) { return c.Lo, c.Hi }

// Noisy perturbs a base generator with bounded uniform noise, weakening a
// correlation without destroying it.
type Noisy struct {
	Base  Generator
	Range int64 // noise drawn from [0, Range)
	Seed  uint64
}

// Value returns base value plus per-row noise.
func (n Noisy) Value(row int64) int64 {
	if n.Range <= 0 {
		return n.Base.Value(row)
	}
	return n.Base.Value(row) + int64(mix(n.Seed, uint64(row))%uint64(n.Range))
}

// Domain widens the base domain by the noise range, saturating at MaxInt64.
func (n Noisy) Domain() (int64, int64) {
	lo, hi := n.Base.Domain()
	if hi > math.MaxInt64-n.Range {
		return lo, math.MaxInt64
	}
	return lo, hi + n.Range
}

// Column is a named, generated column.
type Column struct {
	Name string
	Gen  Generator
}

// Relation is a heap table: rows packed into pages, generated columns, and
// any indexes built over it.
type Relation struct {
	Name        string
	Rows        int64
	RowsPerPage int
	Columns     []Column
	Heap        *storage.Object

	colIdx  map[string]int
	indexes []*Index     // in build order
	values  []valuesOnce // one per column, built by ValueIndex
}

// valuesOnce is a column's value index, built on first use: Build's workers
// share the catalog.
type valuesOnce struct {
	once sync.Once
	idx  *ValueIndex
}

// Index pairs a B+tree with the column it indexes.
type Index struct {
	Name   string
	Column string
	Tree   *index.BTree
}

// Database owns the object registry and the set of relations.
type Database struct {
	Registry  *storage.Registry
	relations map[string]*Relation
	order     []string
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{
		Registry:  storage.NewRegistry(),
		relations: make(map[string]*Relation),
	}
}

// AddRelation creates a relation, registering its heap object sized from
// rows and rowsPerPage. Duplicate names panic (schema construction is
// program-controlled).
func (db *Database) AddRelation(name string, rows int64, rowsPerPage int, cols []Column) *Relation {
	if rows < 0 || rowsPerPage <= 0 {
		panic("catalog: invalid relation geometry for " + name)
	}
	if _, dup := db.relations[name]; dup {
		panic("catalog: duplicate relation " + name)
	}
	pages := storage.PageNum((rows + int64(rowsPerPage) - 1) / int64(rowsPerPage))
	if pages == 0 {
		pages = 1
	}
	rel := &Relation{
		Name:        name,
		Rows:        rows,
		RowsPerPage: rowsPerPage,
		Columns:     cols,
		Heap:        db.Registry.Register(name, storage.KindTable, pages),
		colIdx:      make(map[string]int, len(cols)),
		values:      make([]valuesOnce, len(cols)),
	}
	for i, c := range cols {
		if _, dup := rel.colIdx[c.Name]; dup {
			panic("catalog: duplicate column " + c.Name + " in " + name)
		}
		rel.colIdx[c.Name] = i
	}
	db.relations[name] = rel
	db.order = append(db.order, name)
	return rel
}

// Relation returns the named relation, or nil.
func (db *Database) Relation(name string) *Relation { return db.relations[name] }

// Relations returns all relations in creation order.
func (db *Database) Relations() []*Relation {
	out := make([]*Relation, 0, len(db.order))
	for _, n := range db.order {
		out = append(out, db.relations[n])
	}
	return out
}

// BuildIndex materializes a B+tree over column col of rel by evaluating the
// column generator for every row. The index is named rel_col_idx.
func (db *Database) BuildIndex(rel *Relation, col string, cfg index.Config) *Index {
	ci, ok := rel.colIdx[col]
	if !ok {
		panic(fmt.Sprintf("catalog: no column %s in %s", col, rel.Name))
	}
	gen := rel.Columns[ci].Gen
	entries := make([]index.Entry, rel.Rows)
	for row := int64(0); row < rel.Rows; row++ {
		entries[row] = index.Entry{Key: gen.Value(row), Row: row}
	}
	name := rel.Name + "_" + col + "_idx"
	idx := &Index{Name: name, Column: col, Tree: index.Build(db.Registry, name, entries, cfg)}
	rel.indexes = append(rel.indexes, idx)
	return idx
}

// ColumnIndex returns the position of col, or -1.
func (r *Relation) ColumnIndex(col string) int {
	if i, ok := r.colIdx[col]; ok {
		return i
	}
	return -1
}

// Value evaluates column col for the given row. It panics on unknown columns
// or out-of-range rows — both indicate planner bugs, not user input.
func (r *Relation) Value(col string, row int64) int64 {
	i, ok := r.colIdx[col]
	if !ok {
		panic(fmt.Sprintf("catalog: no column %s in %s", col, r.Name))
	}
	if row < 0 || row >= r.Rows {
		panic(fmt.Sprintf("catalog: row %d out of range for %s", row, r.Name))
	}
	return r.Columns[i].Gen.Value(row)
}

// IndexOn returns the index over col, or nil.
func (r *Relation) IndexOn(col string) *Index {
	for _, ix := range r.indexes {
		if ix.Column == col {
			return ix
		}
	}
	return nil
}

// Indexes returns the relation's indexes in build order.
func (r *Relation) Indexes() []*Index {
	return append([]*Index(nil), r.indexes...)
}

// HeapPage maps a row to its heap PageID.
func (r *Relation) HeapPage(row int64) storage.PageID {
	return storage.PageID{Object: r.Heap.ID, Page: storage.RowPage(row, r.RowsPerPage)}
}

// maxIndexedSpan is the widest domain, in values, a value index covers.
const maxIndexedSpan = 1 << 16

// ValueIndex lists a column's rows by value: a counting sort of the rows,
// each value's rows in row order.
type ValueIndex struct {
	lo, hi int64   // the generator's domain [lo, hi)
	start  []int32 // value lo+v's rows are rows[start[v]:start[v+1]]
	rows   []int32
}

// ValueIndex returns the value index of column col (a position in
// Columns), building it on the first call. It returns nil for a column whose
// generator's Domain is empty or spans more than 2¹⁶ values, whose relation
// has 2³¹ rows or more, or whose generator produced a value outside its
// Domain.
func (r *Relation) ValueIndex(col int) *ValueIndex {
	v := &r.values[col]
	v.once.Do(func() { v.idx = buildValueIndex(r.Columns[col].Gen, r.Rows) })
	return v.idx
}

func buildValueIndex(gen Generator, rows int64) *ValueIndex {
	lo, hi := gen.Domain()
	if hi <= lo || uint64(hi)-uint64(lo) > maxIndexedSpan || rows > math.MaxInt32 {
		return nil
	}
	x := &ValueIndex{lo: lo, hi: hi, start: make([]int32, hi-lo+1), rows: make([]int32, rows)}
	vals := make([]uint16, rows) // value - lo, below maxIndexedSpan
	for row := range vals {
		v := gen.Value(int64(row))
		if v < lo || v >= hi {
			return nil
		}
		vals[row] = uint16(v - lo)
		x.start[v-lo+1]++
	}
	for v := 1; v < len(x.start); v++ {
		x.start[v] += x.start[v-1]
	}
	next := slices.Clone(x.start[:len(x.start)-1]) // each value's fill position
	for row, v := range vals {
		x.rows[next[v]] = int32(row)
		next[v]++
	}
	return x
}

// Range returns the rows whose value lies in [lo, hi], grouped by value in
// ascending order, each value's rows in row order. Bounds outside the domain
// are clamped to it.
func (x *ValueIndex) Range(lo, hi int64) []int32 {
	if lo > hi || hi < x.lo || lo >= x.hi {
		return nil
	}
	from, to := int64(0), x.hi-x.lo // offsets into start, to exclusive
	if lo > x.lo {
		from = lo - x.lo
	}
	if hi < x.hi-1 {
		to = hi - x.lo + 1
	}
	return x.rows[x.start[from]:x.start[to]]
}
