// Package workload materializes query workloads: it plans and executes each
// query instance of a template, collects its access script and processed
// trace, handles train/test splitting (the paper samples 5% of each workload
// as unseen test queries), similarity measurement between queries (Jaccard
// over accessed blocks), and workload merging (the heterogeneous-workload
// experiment, Figure 12c).
package workload

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/exec"
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/trace"
)

// Instance is one executed query: its specification, physical plan, full
// access script, and processed (training-ready) trace.
type Instance struct {
	Query    plan.Query
	Plan     *plan.Node
	Requests []storage.Request
	Pages    []storage.PageID // trace.Process(Requests)
}

// Workload is a set of instances over one database, usually all from one
// template ("we define a workload as several query instances of a particular
// query template", §5.1).
type Workload struct {
	Name      string
	DB        *catalog.Database
	Instances []*Instance
}

// Build plans and executes every query, producing a workload. This is the
// paper's trace-collection phase: "we execute each of the 1000 queries from
// each workload on Postgres and generate the trace sequence". A planning
// error (unknown relation, impossible hint) aborts the build and is
// returned; MustBuild covers generator-produced queries that are valid by
// construction.
//
// The queries run on min(GOMAXPROCS, len(queries)) workers. Each query is
// planned, executed and post-processed on its own, reading only the
// catalog, and instance i lands in slot i, so the workload is the same at
// any GOMAXPROCS. Build fails as a serial loop would: once a query fails,
// no worker claims another, and since every lower index was claimed before
// it, the lowest-index failure is the serial loop's first. That failure is
// returned if it is an error and raised on the caller's goroutine if it is
// a panic; a panic of a later query that was already running is dropped.
func Build(name string, db *catalog.Database, queries []plan.Query) (*Workload, error) {
	pl := plan.NewPlanner(db)
	insts := make([]*Instance, len(queries))
	errs := make([]error, len(queries))
	panics := make([]any, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(queries)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				func() {
					defer func() { panics[i] = recover() }()
					insts[i], errs[i] = build(pl, queries[i])
				}()
				if errs[i] != nil || panics[i] != nil {
					next.Store(int64(len(queries)))
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if panics[i] != nil {
			panic(panics[i])
		}
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
	}
	return &Workload{Name: name, DB: db, Instances: insts}, nil
}

// build plans, executes and post-processes one query.
func build(pl *plan.Planner, q plan.Query) (*Instance, error) {
	root, err := pl.Plan(q)
	if err != nil {
		return nil, err
	}
	res := exec.Run(root)
	return &Instance{
		Query:    q,
		Plan:     root,
		Requests: res.Requests,
		Pages:    trace.Process(res.Requests),
	}, nil
}

// MustBuild is Build for query sets known valid by construction (the DSB
// and IMDB template generators); it panics on a planning error.
func MustBuild(name string, db *catalog.Database, queries []plan.Query) *Workload {
	w, err := Build(name, db, queries)
	if err != nil {
		panic(err.Error())
	}
	return w
}

// Split partitions instances into train and test sets, holding out testFrac
// of them uniformly at random (the paper holds out 5%). The split is
// deterministic in seed.
func (w *Workload) Split(testFrac float64, seed uint64) (train, test []*Instance) {
	n := len(w.Instances)
	nTest := int(float64(n)*testFrac + 0.5)
	if nTest < 1 && n > 1 && testFrac > 0 {
		nTest = 1
	}
	perm := sim.NewRand(seed).Perm(n)
	testSet := make(map[int]bool, nTest)
	for _, i := range perm[:nTest] {
		testSet[i] = true
	}
	for i, inst := range w.Instances {
		if testSet[i] {
			test = append(test, inst)
		} else {
			train = append(train, inst)
		}
	}
	return train, test
}

// Merge concatenates workloads into a heterogeneous one (Figure 12c trains
// Pythia on a template-18+19 mix).
func Merge(name string, ws ...*Workload) *Workload {
	if len(ws) == 0 {
		panic("workload: Merge of nothing")
	}
	out := &Workload{Name: name, DB: ws[0].DB}
	for _, w := range ws {
		if w.DB != out.DB {
			panic("workload: Merge across databases")
		}
		out.Instances = append(out.Instances, w.Instances...)
	}
	return out
}

// Subsample returns a deterministic random fraction of instances (the
// training-data-size sweep, Figure 12b).
func Subsample(instances []*Instance, frac float64, seed uint64) []*Instance {
	n := int(float64(len(instances))*frac + 0.5)
	if n <= 0 {
		n = 1
	}
	if n >= len(instances) {
		return instances
	}
	perm := sim.NewRand(seed).Perm(len(instances))
	out := make([]*Instance, 0, n)
	for _, i := range perm[:n] {
		out = append(out, instances[i])
	}
	return out
}

// Similarity is the Jaccard coefficient between two instances' accessed
// block sets.
func Similarity(a, b *Instance) float64 {
	return trace.Jaccard(a.Pages, b.Pages)
}

// AvgSimilarity measures how similar a test query is to an entire training
// workload: the mean Jaccard similarity against every training instance
// (§5.3, "Similarity between test query and query workload").
func AvgSimilarity(test *Instance, train []*Instance) float64 {
	if len(train) == 0 {
		return 0
	}
	total := 0.0
	for _, tr := range train {
		total += Similarity(test, tr)
	}
	return total / float64(len(train))
}

// NonSeqReads returns the instance's number of distinct non-sequential
// reads — the bucketization key of Figures 10–11.
func NonSeqReads(inst *Instance) int { return len(inst.Pages) }

// DistinctPlans counts the distinct physical plan shapes in the workload
// (Table 1, "Distinct query plans in workload").
func (w *Workload) DistinctPlans() int {
	shapes := map[string]bool{}
	for _, inst := range w.Instances {
		shapes[inst.Plan.Shape()] = true
	}
	return len(shapes)
}

// Stats aggregates the Table 1 statistics for the workload.
type Stats struct {
	SeqIO           int // total sequential page requests across instances
	MinDistinctNS   int
	MaxDistinctNS   int
	DistinctPlans   int
	RelationsJoined int // relations in the template's join (fact + dims)
	MaxIndexScanned int // dimensions index-scanned in any instance
}

// ComputeStats produces the workload's Table 1 row.
func (w *Workload) ComputeStats() Stats {
	s := Stats{MinDistinctNS: 1<<31 - 1}
	for _, inst := range w.Instances {
		s.SeqIO += trace.SeqRequests(inst.Requests)
		s.MinDistinctNS = min(s.MinDistinctNS, len(inst.Pages))
		s.MaxDistinctNS = max(s.MaxDistinctNS, len(inst.Pages))
		rels := 1 + len(inst.Query.Dims)
		if rels > s.RelationsJoined {
			s.RelationsJoined = rels
		}
		idxScans := 0
		inst.Plan.Walk(func(n *plan.Node) {
			if n.Kind == plan.KindIndexScan {
				idxScans++
			}
		})
		if idxScans > s.MaxIndexScanned {
			s.MaxIndexScanned = idxScans
		}
	}
	if len(w.Instances) == 0 {
		s.MinDistinctNS = 0
	}
	s.DistinctPlans = w.DistinctPlans()
	return s
}
