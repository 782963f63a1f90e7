package predictor

import (
	"slices"
	"testing"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/exec"
	"github.com/pythia-db/pythia/internal/index"
	"github.com/pythia-db/pythia/internal/metrics"
	"github.com/pythia-db/pythia/internal/model"
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/trace"
)

// workloadDB builds a DSB-flavoured micro-schema: the fact's foreign key is
// correlated with its date column, so a date-range predicate determines
// (noisily) which dimension pages the query probes — the correlation Pythia
// exploits.
func workloadDB() *catalog.Database {
	db := catalog.NewDatabase()
	dateGen := catalog.Uniform{Lo: 0, Hi: 1000, Seed: 11}
	db.AddRelation("fact", 4000, 20, []catalog.Column{
		{Name: "f_date", Gen: dateGen},
		{Name: "f_item_fk", Gen: catalog.Noisy{
			Base: catalog.Correlated{
				Base:      dateGen,
				Transform: func(v int64) int64 { return v * 3 },
				Lo:        0, Hi: 3000,
			},
			Range: 300, Seed: 13,
		}},
	})
	item := db.AddRelation("item", 3300, 10, []catalog.Column{
		{Name: "i_sk", Gen: catalog.Serial{}},
	})
	db.BuildIndex(item, "i_sk", index.Config{LeafCap: 32, Fanout: 16})
	return db
}

func templateQuery(p int64) plan.Query {
	return plan.Query{
		Fact:      "fact",
		FactPreds: []plan.Pred{plan.Between("f_date", p, p+60)},
		Dims: []plan.DimJoin{{
			Dim: "item", FactFK: "f_item_fk", DimKey: "i_sk", ForceIndex: true,
		}},
		Template: "t1",
	}
}

func buildSamples(t *testing.T, db *catalog.Database, params []int64) ([]TrainSample, []*plan.Node) {
	t.Helper()
	return buildSamplesOf(t, db, params, templateQuery)
}

func buildSamplesOf(t *testing.T, db *catalog.Database, params []int64, query func(int64) plan.Query) ([]TrainSample, []*plan.Node) {
	t.Helper()
	pl := plan.NewPlanner(db)
	var samples []TrainSample
	var plans []*plan.Node
	for _, p := range params {
		root := pl.MustPlan(query(p))
		samples = append(samples, TrainSample{Plan: root, Pages: trace.Process(exec.Run(root).Requests)})
		plans = append(plans, root)
	}
	return samples, plans
}

func fastOpts() Options {
	cfg := model.DefaultConfig()
	cfg.Dim = 16
	cfg.Heads = 2
	cfg.Layers = 1
	cfg.DecoderHidden = 32
	cfg.Epochs = 25
	return Options{Model: cfg}
}

func TestPredictorLearnsWorkload(t *testing.T) {
	db := workloadDB()
	r := sim.NewRand(3)
	var trainParams, testParams []int64
	for i := 0; i < 48; i++ {
		trainParams = append(trainParams, r.Int63n(900))
	}
	for i := 0; i < 8; i++ {
		testParams = append(testParams, r.Int63n(900))
	}
	samples, _ := buildSamples(t, db, trainParams)
	p := Train(samples, fastOpts())

	if p.TrainTime <= 0 {
		t.Fatal("TrainTime not recorded")
	}
	if p.VocabSize() <= 3 {
		t.Fatal("vocabulary did not grow")
	}
	if len(p.Models()) == 0 {
		t.Fatal("no models trained")
	}
	if p.ParamCount() <= 0 {
		t.Fatal("ParamCount wrong")
	}

	testSamples, testPlans := buildSamples(t, db, testParams)
	var f1s []float64
	for i, root := range testPlans {
		pred := p.Predict(root, p.EncodePlan(root))
		f1s = append(f1s, metrics.Score(pred, testSamples[i].Pages).F1)
	}
	mean := metrics.Summarize(f1s).Mean
	if mean < 0.5 {
		t.Fatalf("unseen-query mean F1 = %.3f, want >= 0.5 (%v)", mean, f1s)
	}
}

func TestPredictDeterministicAndSorted(t *testing.T) {
	db := workloadDB()
	samples, plans := buildSamples(t, db, []int64{100, 300, 500, 700, 100, 300, 500, 700})
	p := Train(samples, fastOpts())
	ids := p.EncodePlan(plans[0])
	a := p.Predict(plans[0], ids)
	b := p.Predict(plans[0], ids)
	if len(a) != len(b) {
		t.Fatal("prediction not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("prediction not deterministic")
		}
		if i > 0 && !a[i-1].Less(a[i]) {
			t.Fatal("prediction not sorted/deduped")
		}
	}
	// PredictParallel, kept for the frozen bench/ module, encodes the plan itself.
	if c := p.PredictParallel(plans[0]); !slices.Equal(a, c) {
		t.Fatalf("PredictParallel differs from Predict: %d vs %d pages", len(c), len(a))
	}
}

func TestPredictIgnoresIrrelevantPlans(t *testing.T) {
	db := workloadDB()
	samples, _ := buildSamples(t, db, []int64{100, 300, 500, 700})
	p := Train(samples, fastOpts())
	// A plan with no index scans has no non-sequential scan nodes; Pythia
	// predicts nothing (Algorithm 3 only engages for non-sequential scans).
	pl := plan.NewPlanner(db)
	q := templateQuery(100)
	q.Dims[0].ForceIndex = false
	q.Dims[0].ForceHash = true
	root := pl.MustPlan(q)
	if got := p.Predict(root, p.EncodePlan(root)); len(got) != 0 {
		t.Fatalf("hash-only plan predicted %d pages", len(got))
	}
}

func pageID(o, n int) storage.PageID {
	return storage.PageID{Object: storage.ObjectID(o), Page: storage.PageNum(n)}
}

// TestTopKLabels: the workload's k most frequent pages, whatever their
// object, ties toward the lower page.
func TestTopKLabels(t *testing.T) {
	pg := pageID
	samples := []model.Sample{
		{Pages: []storage.PageID{pg(1, 0), pg(1, 1)}},
		{Pages: []storage.PageID{pg(1, 0), pg(1, 2)}},
		{Pages: []storage.PageID{pg(1, 0), pg(2, 5)}},
	}
	if got := topKLabels(samples, 2); len(got) != 2 || !got[pg(1, 0)] || !got[pg(1, 1)] {
		t.Fatalf("top-2 = %v, want the most frequent page and the lowest of the ties", got)
	}
	// k larger than the distinct pages: all of them, every object included.
	if got := topKLabels(samples, 100); len(got) != 4 || !got[pg(2, 5)] {
		t.Fatalf("overlarge k = %v", got)
	}
	if got := topKLabels(samples, 0); got != nil {
		t.Fatalf("k = 0 restricts to %v, want no restriction", got)
	}
}

// TestObjectLabels: an object's label space is its pages observed in
// training, sorted and deduplicated, and with TopK set only those among the
// workload's k most frequent: a small object's hot page survives, and the
// objects hold at most k labels together.
func TestObjectLabels(t *testing.T) {
	pg := pageID
	samples := []model.Sample{
		{Pages: []storage.PageID{pg(1, 5), pg(1, 2), pg(2, 0)}},
		{Pages: []storage.PageID{pg(1, 2), pg(1, 9), pg(2, 0)}},
		{Pages: []storage.PageID{pg(1, 7), pg(2, 0)}},
	}
	if got, want := objectLabels(1, samples, nil), []storage.PageID{pg(1, 2), pg(1, 5), pg(1, 7), pg(1, 9)}; !slices.Equal(got, want) {
		t.Fatalf("observed labels = %v, want %v", got, want)
	}
	top := topKLabels(samples, 2)
	if got, want := objectLabels(1, samples, top), []storage.PageID{pg(1, 2)}; !slices.Equal(got, want) {
		t.Fatalf("object 1's top-2 labels = %v, want %v", got, want)
	}
	if got, want := objectLabels(2, samples, top), []storage.PageID{pg(2, 0)}; !slices.Equal(got, want) {
		t.Fatalf("object 2's top-2 labels = %v, want its hot page %v", got, want)
	}
}

// TestTopKRestrictsLabelSpace: TopK bounds the label total across every
// head, not each head's, and a head left without labels is not built.
func TestTopKRestrictsLabelSpace(t *testing.T) {
	db := workloadDB()
	samples, _ := buildSamples(t, db, []int64{100, 300, 500, 700, 200, 400})
	labels := func(p *Predictor) (n int) {
		for _, m := range p.Models() {
			if len(m.Labels) == 0 {
				t.Fatal("a head with an empty label space")
			}
			n += len(m.Labels)
		}
		return n
	}
	full := Train(samples, fastOpts())
	if n := labels(full); n <= 5 {
		t.Fatalf("the unrestricted heads hold %d labels, too few to restrict to 5", n)
	}
	opts := fastOpts()
	opts.TopK = 5
	if n := labels(Train(samples, opts)); n == 0 || n > 5 {
		t.Fatalf("TopK 5 kept %d labels across the heads, want 1 to 5", n)
	}
}

func TestGroupsCombineObjects(t *testing.T) {
	db := workloadDB()
	// Each parameter repeats so the combined model sees every page set
	// several times per epoch and grows confident on heap pages too.
	samples, _ := buildSamples(t, db, []int64{
		100, 300, 500, 700, 100, 300, 500, 700, 100, 300, 500, 700,
	})
	item := db.Relation("item")
	opts := fastOpts()
	opts.Model.Epochs = 50
	opts.Groups = [][]storage.ObjectID{
		{item.Heap.ID, item.IndexOn("i_sk").Tree.Object().ID},
	}
	p := Train(samples, opts)
	if len(p.Models()) != 1 {
		t.Fatalf("combined group trained %d models, want 1", len(p.Models()))
	}
	// One label space: the heap's observed pages, then the index's.
	labels := p.Models()[0].Labels
	if labels[0].Object != item.Heap.ID || labels[len(labels)-1].Object != item.IndexOn("i_sk").Tree.Object().ID {
		t.Fatalf("combined label space runs from object %d to %d, want heap then index", labels[0].Object, labels[len(labels)-1].Object)
	}
	// The combined model still predicts pages from both objects.
	pl := plan.NewPlanner(db)
	root := pl.MustPlan(templateQuery(100))
	pred := p.Predict(root, p.EncodePlan(root))
	objs := map[uint32]bool{}
	for _, pg := range pred {
		objs[uint32(pg.Object)] = true
	}
	if len(objs) < 2 {
		t.Fatalf("combined model predicted only objects %v", objs)
	}
}
