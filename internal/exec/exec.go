// Package exec is the query executor: it runs a physical plan tree against
// the catalog and emits the exact ordered sequence of page requests the plan
// generates — sequential heap reads for Seq Scans, index-page descents and
// heap fetches for Index Scans under nested loops, build-side scans for hash
// joins. That request stream is the query's "trace" (paper §3.3, Trace
// Construction) and, replayed through the cache hierarchy, its runtime.
//
// The executor is push-based: each operator emits bindings to its consumer.
// For a trace-driven simulator this is equivalent to the Volcano pull model
// Postgres uses — the page access order is identical — and considerably
// simpler.
package exec

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/storage"
)

// Result summarizes one query execution.
type Result struct {
	// Rows is the number of rows that reached the plan root.
	Rows int64
	// Requests is the ordered page-access script, with per-request tuple
	// counts for CPU accounting during replay.
	Requests []storage.Request
	// TrailingTuples counts tuples processed after the final page request.
	TrailingTuples int
}

// tuple binds each relation appearing in the plan (by slot) to a row.
type tuple []int64

type colBinding struct {
	rel  *catalog.Relation
	slot int
}

type executor struct {
	slots    map[string]int        // relation name -> tuple slot
	cols     map[string]colBinding // column name -> owning relation
	requests []storage.Request
	tuples   int // tuples processed since last request
	rows     int64
	cur      tuple
}

// Run executes the plan rooted at root and returns its result. The plan
// must have been produced against the same catalog its scan nodes reference.
// Column names must be unique across the query's relations (the DSB-style
// prefixed schemas guarantee this); Run panics otherwise, since an ambiguous
// join column is a schema bug.
//
// Every column a node reads is resolved to its generator once, when the
// node starts, not once per row: the scan, filter and probe loops then
// evaluate generators directly.
func Run(root *plan.Node) *Result {
	e := &executor{slots: make(map[string]int), cols: make(map[string]colBinding)}
	root.Walk(func(n *plan.Node) {
		if n.Rel == nil {
			return
		}
		if _, ok := e.slots[n.Rel.Name]; ok {
			return
		}
		slot := len(e.slots)
		e.slots[n.Rel.Name] = slot
		for _, c := range n.Rel.Columns {
			if prev, dup := e.cols[c.Name]; dup && prev.rel != n.Rel {
				panic("exec: column " + c.Name + " is ambiguous across relations")
			}
			e.cols[c.Name] = colBinding{rel: n.Rel, slot: slot}
		}
	})
	e.cur = make(tuple, len(e.slots))
	e.run(root, func() { e.rows++ })
	// The stream is kept for the life of its workload, so it is returned
	// without append's slack.
	return &Result{Rows: e.rows, Requests: slices.Clone(e.requests), TrailingTuples: e.tuples}
}

// request records a page access, folding in the tuple count accumulated
// since the previous request.
func (e *executor) request(p storage.PageID, sequential bool) {
	tuples := int32(e.tuples)
	if int(tuples) != e.tuples {
		panic(fmt.Sprintf("exec: %d tuples between two page requests overflow a request's count", e.tuples))
	}
	e.requests = append(e.requests, storage.Request{
		Page:       p,
		Sequential: sequential,
		Tuples:     tuples,
	})
	e.tuples = 0
}

func (e *executor) slot(rel *catalog.Relation) int { return e.slots[rel.Name] }

// column returns the generator of rel's column col. An unknown column is a
// planner bug, as it is to catalog.Relation.Value.
func column(rel *catalog.Relation, col string) catalog.Generator {
	return rel.Columns[columnIndex(rel, col)].Gen
}

// columnIndex returns the position of rel's column col.
func columnIndex(rel *catalog.Relation, col string) int {
	i := rel.ColumnIndex(col)
	if i < 0 {
		panic(fmt.Sprintf("exec: no column %s in %s", col, rel.Name))
	}
	return i
}

// boundPred is a predicate with its column resolved to the generator.
type boundPred struct {
	gen catalog.Generator
	plan.Pred
}

func bindPreds(rel *catalog.Relation, preds []plan.Pred) []boundPred {
	out := make([]boundPred, len(preds))
	for i, p := range preds {
		out[i] = boundPred{gen: column(rel, p.Col), Pred: p}
	}
	return out
}

func predsMatch(preds []boundPred, row int64) bool {
	for _, p := range preds {
		if !p.Matches(p.gen.Value(row)) {
			return false
		}
	}
	return true
}

// key is a join column resolved to its generator and the tuple slot holding
// the row it is evaluated on.
type key struct {
	gen  catalog.Generator
	slot int
}

func (k key) value(cur tuple) int64 { return k.gen.Value(cur[k.slot]) }

// outerKey resolves a probe key: column names are unique across the query's
// relations, so the column identifies both the relation and the tuple slot
// carrying the bound row.
func (e *executor) outerKey(col string) key {
	b, ok := e.cols[col]
	if !ok {
		panic("exec: no relation in plan defines column " + col)
	}
	return key{gen: column(b.rel, col), slot: b.slot}
}

func (e *executor) run(n *plan.Node, emit func()) {
	switch n.Kind {
	case plan.KindSeqScan:
		e.seqScan(n, emit)
	case plan.KindNestedLoop:
		inner := n.Right
		if inner == nil || inner.Kind != plan.KindIndexScan {
			panic("exec: nested loop requires an index-scan inner")
		}
		k := e.outerKey(inner.OuterCol)
		slot, preds := e.slot(inner.Rel), bindPreds(inner.Rel, inner.Preds)
		e.run(n.Left, func() { e.indexProbe(inner, k.value(e.cur), slot, preds, emit) })
	case plan.KindHashJoin:
		e.hashJoin(n, emit)
	case plan.KindFilter:
		if n.Rel == nil {
			e.run(n.Left, emit)
			return
		}
		slot, preds := e.slot(n.Rel), bindPreds(n.Rel, n.Preds)
		e.run(n.Left, func() {
			if predsMatch(preds, e.cur[slot]) {
				emit()
			}
		})
	case plan.KindAgg, plan.KindSort:
		// Neither changes page access order (the paper's serializer skips
		// sort/hash nodes for the same reason); aggregation consumes rows.
		e.run(n.Left, emit)
	case plan.KindIndexScan:
		panic("exec: bare index scan outside a nested loop")
	default:
		panic(fmt.Sprintf("exec: unknown plan kind %v", n.Kind))
	}
}

// seqScan reads the relation's heap in file order, one request per page,
// emitting rows that pass the node's predicates. The first predicate whose
// column has a catalog.ValueIndex picks the rows to read through it, and
// only those are tested against the other predicates; the rows it skips
// still count as read, so requests and tuple counts are those of a scan
// that tests every row.
func (e *executor) seqScan(n *plan.Node, emit func()) {
	rel := n.Rel
	slot := e.slot(rel)
	admit, preds := admitted(rel, n.Preds)
	w := heapWalk{e: e, rel: rel}
	for i, word := range admit {
		for ; word != 0; word &= word - 1 {
			row := int64(i)*64 + int64(bits.TrailingZeros64(word))
			w.read(row)
			if predsMatch(preds, row) {
				e.cur[slot] = row
				emit()
			}
		}
	}
	if rel.Rows > 0 {
		w.read(rel.Rows - 1)
	}
}

// admitted returns a bitmap of the rows of rel the first indexed predicate
// admits, and the other predicates bound; with no indexed predicate, every
// row is set and every predicate returned.
func admitted(rel *catalog.Relation, preds []plan.Pred) ([]uint64, []boundPred) {
	admit := make([]uint64, (rel.Rows+63)/64)
	for i, p := range preds {
		x := rel.ValueIndex(columnIndex(rel, p.Col))
		if x == nil {
			continue
		}
		for _, row := range x.Range(p.Lo, p.Hi) {
			admit[row>>6] |= 1 << (row & 63)
		}
		return admit, bindPreds(rel, slices.Delete(slices.Clone(preds), i, i+1))
	}
	for i := range admit {
		admit[i] = ^uint64(0)
	}
	if tail := rel.Rows % 64; tail != 0 {
		admit[len(admit)-1] = 1<<tail - 1
	}
	return admit, bindPreds(rel, preds)
}

// heapWalk requests a seq scan's heap pages in file order and counts the
// rows it reads, so that a scan that skips rows requests what a row-by-row
// scan does, with the same tuple counts.
type heapWalk struct {
	e    *executor
	rel  *catalog.Relation
	page storage.PageNum // the next page to request
	next int64           // the first row not yet counted
	end  int64           // the end of the pages requested so far
}

// read counts every row up to and including row as read, requesting each
// page up to row's before the first row on it is counted.
func (w *heapWalk) read(row int64) {
	for row >= w.end {
		w.e.tuples += int(w.end - w.next)
		w.next = w.end
		w.e.request(storage.PageID{Object: w.rel.Heap.ID, Page: w.page}, true)
		w.page++
		w.end = min(w.end+int64(w.rel.RowsPerPage), w.rel.Rows)
	}
	w.e.tuples += int(row - w.next + 1)
	w.next = row + 1
}

// indexProbe probes the inner index n with the outer tuple's join key k:
// the B+tree descent and sibling-leaf pages are requested (non-sequential),
// then each matching heap row's page is fetched (non-sequential) before the
// node's residual predicates run.
func (e *executor) indexProbe(n *plan.Node, k int64, slot int, preds []boundPred, emit func()) {
	probe := n.Index.Tree.Lookup(k)
	for _, p := range probe.IndexPages {
		e.request(p, false)
	}
	rel := n.Rel
	for _, row := range probe.Rows {
		e.request(rel.HeapPage(row), false)
		e.tuples++
		if predsMatch(preds, row) {
			e.cur[slot] = row
			emit()
		}
	}
}

// hashJoin materializes the build side (right child, a Seq Scan with its
// predicates) into a key → rows table, then streams the outer side through
// it. Probing is pure CPU: no page requests.
func (e *executor) hashJoin(n *plan.Node, emit func()) {
	build := n.Right
	if build == nil || build.Kind != plan.KindSeqScan {
		panic("exec: hash join requires a seq-scan build side")
	}
	rel := build.Rel
	slot := e.slot(rel)
	inner := column(rel, n.InnerCol)
	var keys, rows []int64
	e.run(build, func() {
		row := e.cur[slot]
		keys = append(keys, inner.Value(row))
		rows = append(rows, row)
	})
	table := groupRows(keys, rows, 2*rel.Rows)
	outer := e.outerKey(n.OuterCol)
	e.run(n.Left, func() {
		for _, row := range table.lookup(outer.value(e.cur)) {
			e.cur[slot] = row
			e.tuples++
			emit()
		}
	})
}

// groupedRows is a hash join's build side as one table: the build rows
// bucketed by join key, each bucket in scan order. Bucket b holds
// rows[start[b]:start[b+1]]. Keys that span few more values than the build
// scan read rows (every surrogate key) index their bucket as key - lo, and
// other keys number theirs through group.
type groupedRows struct {
	lo    int64
	group map[int64]int32 // key -> bucket; nil when buckets are key - lo
	start []int32
	rows  []int64
}

// groupRows buckets rows[i], whose join key is keys[i], by key with a
// counting sort, which keeps scan order within a key. Keys are addressed
// directly when max - min < maxSpan.
func groupRows(keys, rows []int64, maxSpan int64) *groupedRows {
	t := &groupedRows{rows: make([]int64, len(rows))}
	var count []int32
	if lo, hi, ok := bounds(keys); ok && uint64(hi-lo) < uint64(maxSpan) {
		t.lo = lo
		count = make([]int32, hi-lo+1)
	} else {
		t.group = make(map[int64]int32, len(keys))
	}
	ids := make([]int32, len(keys))
	for i, k := range keys {
		b := int32(k - t.lo)
		if t.group != nil {
			var ok bool
			if b, ok = t.group[k]; !ok {
				b = int32(len(count))
				t.group[k] = b
				count = append(count, 0)
			}
		}
		count[b]++
		ids[i] = b
	}
	t.start = make([]int32, len(count)+1)
	for b, c := range count {
		t.start[b+1] = t.start[b] + c
	}
	next := count // reused as each bucket's fill position
	copy(next, t.start)
	for i, row := range rows {
		b := ids[i]
		t.rows[next[b]] = row
		next[b]++
	}
	return t
}

// bounds returns the least and greatest key, or ok = false for none.
func bounds(keys []int64) (lo, hi int64, ok bool) {
	if len(keys) == 0 {
		return 0, 0, false
	}
	lo, hi = keys[0], keys[0]
	for _, k := range keys[1:] {
		lo, hi = min(lo, k), max(hi, k)
	}
	return lo, hi, true
}

// lookup returns k's build rows in scan order, or nil.
func (t *groupedRows) lookup(k int64) []int64 {
	b := k - t.lo
	if t.group != nil {
		g, ok := t.group[k]
		if !ok {
			return nil
		}
		b = int64(g)
	} else if uint64(b) >= uint64(len(t.start)-1) {
		return nil
	}
	return t.rows[t.start[b]:t.start[b+1]]
}
