package plan

import (
	"fmt"
	"math"

	"github.com/pythia-db/pythia/internal/catalog"
)

// The planner's cost constants are Postgres' defaults.
const (
	seqPageCost    = 1.0  // seq_page_cost
	randomPageCost = 4.0  // random_page_cost
	cpuTupleCost   = 0.01 // cpu_tuple_cost
)

// Planner turns Query specifications into physical plan trees using simple
// System-R-style cost arithmetic. Join order follows the query spec (as
// templates fix it); the planner's per-dimension decision is index nested
// loop vs hash join, which is what produces multiple distinct plans per
// template.
type Planner struct {
	DB *catalog.Database
}

// NewPlanner returns a planner over db.
func NewPlanner(db *catalog.Database) *Planner {
	return &Planner{DB: db}
}

// selectivity estimates the fraction of rows passing p given the column
// generator's domain, under the naive uniformity assumption real optimizers
// start from.
func selectivity(rel *catalog.Relation, p Pred) float64 {
	ci := rel.ColumnIndex(p.Col)
	if ci < 0 {
		return 1
	}
	lo, hi := rel.Columns[ci].Gen.Domain()
	if hi <= lo {
		return 1
	}
	from, to := p.Lo, p.Hi
	if from < lo {
		from = lo
	}
	if to > hi-1 {
		to = hi - 1
	}
	if to < from {
		return 0
	}
	sel := float64(to-from+1) / float64(hi-lo)
	if sel > 1 {
		sel = 1
	}
	return sel
}

func combinedSelectivity(rel *catalog.Relation, preds []Pred) float64 {
	sel := 1.0
	for _, p := range preds {
		sel *= selectivity(rel, p)
	}
	return sel
}

// Plan builds the physical plan for q. References to unknown relations or
// impossible force-hints are reported as errors: query specs can come from
// untrusted sources (the pythia-serve HTTP surface), so a dangling name is
// an input problem, not a panic. Callers holding generator-produced queries
// can use MustPlan.
func (pl *Planner) Plan(q Query) (*Node, error) {
	fact := pl.DB.Relation(q.Fact)
	if fact == nil {
		return nil, fmt.Errorf("plan: unknown fact relation %q", q.Fact)
	}
	// Fact access path: DSB's I/O-heavy templates sequentially scan the
	// fact table (paper §5.1); an index path could be added here, but the
	// templates under study never choose one, matching the paper.
	cur := &Node{
		Kind:    KindSeqScan,
		Rel:     fact,
		Preds:   q.FactPreds,
		EstRows: float64(fact.Rows) * combinedSelectivity(fact, q.FactPreds),
	}
	outRows := cur.EstRows

	for _, dj := range q.Dims {
		dim := pl.DB.Relation(dj.Dim)
		if dim == nil {
			return nil, fmt.Errorf("plan: unknown dimension relation %q", dj.Dim)
		}
		idx := dim.IndexOn(dj.DimKey)
		dimSel := combinedSelectivity(dim, dj.Preds)

		useIndex := idx != nil
		if useIndex && !dj.ForceIndex && !dj.ForceHash {
			useIndex = pl.nljCost(outRows, dim, idx) < pl.hashCost(dim)
		}
		if dj.ForceHash {
			useIndex = false
		}
		if dj.ForceIndex && idx == nil {
			return nil, fmt.Errorf("plan: ForceIndex on %s.%s but no index", dj.Dim, dj.DimKey)
		}

		if useIndex {
			inner := &Node{
				Kind:     KindIndexScan,
				Rel:      dim,
				Index:    idx,
				Preds:    dj.Preds,
				OuterCol: dj.FactFK,
				EstRows:  dimSel, // per probe: FK matches ~1 row, filtered
			}
			cur = &Node{
				Kind:    KindNestedLoop,
				Left:    cur,
				Right:   inner,
				EstRows: outRows * dimSel,
			}
		} else {
			build := &Node{
				Kind:    KindSeqScan,
				Rel:     dim,
				Preds:   dj.Preds,
				EstRows: float64(dim.Rows) * dimSel,
			}
			cur = &Node{
				Kind:     KindHashJoin,
				Left:     cur,
				Right:    build,
				OuterCol: dj.FactFK,
				InnerCol: dj.DimKey,
				EstRows:  outRows * dimSel,
			}
		}
		outRows = cur.EstRows
	}

	agg := &Node{Kind: KindAgg, Left: cur, EstRows: 1}
	return agg, nil
}

// MustPlan is Plan for queries known valid by construction (template
// generators, round-trip tests); a planning error there is a programming
// bug, so it panics.
func (pl *Planner) MustPlan(q Query) *Node {
	root, err := pl.Plan(q)
	if err != nil {
		panic(err.Error())
	}
	return root
}

// nljCost estimates the cost of probing dim's index once per outer row:
// each probe pays the root→leaf descent plus roughly one heap page, all
// random I/O. Upper levels are hot, so only a fraction of the descent is
// charged, mirroring Postgres' cached-inner discount.
func (pl *Planner) nljCost(outerRows float64, dim *catalog.Relation, idx *catalog.Index) float64 {
	descent := float64(idx.Tree.Height())*0.5 + 1 // cached upper levels
	perProbe := descent * randomPageCost
	return outerRows * (perProbe + cpuTupleCost)
}

// hashCost estimates building a hash table from a full sequential scan of
// the dimension.
func (pl *Planner) hashCost(dim *catalog.Relation) float64 {
	return float64(dim.Heap.Pages)*seqPageCost + float64(dim.Rows)*cpuTupleCost
}

// EstimateFactRows exposes the planner's fact-output estimate; the workload
// generators use it to shape template selectivities.
func (pl *Planner) EstimateFactRows(q Query) float64 {
	fact := pl.DB.Relation(q.Fact)
	if fact == nil {
		return math.NaN()
	}
	return float64(fact.Rows) * combinedSelectivity(fact, q.FactPreds)
}
