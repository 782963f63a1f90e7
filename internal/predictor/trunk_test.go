package predictor

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/index"
	"github.com/pythia-db/pythia/internal/model"
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
)

// twoDimQuery is templateQuery joined to a second dimension, item2, through
// its index on the same foreign key.
func twoDimQuery(p int64) plan.Query {
	q := templateQuery(p)
	q.Dims = append(q.Dims, plan.DimJoin{Dim: "item2", FactFK: "f_item_fk", DimKey: "i2_sk", ForceIndex: true})
	return q
}

// headsFixture trains a predictor whose one trunk carries four heads — the
// heap and the index of each of two dimensions the plans probe — and plans a
// few held-out queries.
func headsFixture(t *testing.T, epochs int) (*Predictor, []TrainSample, []*plan.Node) {
	t.Helper()
	db := workloadDB()
	item2 := db.AddRelation("item2", 3300, 10, []catalog.Column{{Name: "i2_sk", Gen: catalog.Serial{}}})
	db.BuildIndex(item2, "i2_sk", index.Config{LeafCap: 32, Fanout: 16})
	r := sim.NewRand(23)
	var trainParams, heldOut []int64
	for i := 0; i < 24; i++ {
		trainParams = append(trainParams, r.Int63n(900))
	}
	for i := 0; i < 6; i++ {
		heldOut = append(heldOut, r.Int63n(900))
	}
	samples, _, _ := buildSamplesOf(t, db, trainParams, twoDimQuery)
	opts := fastOpts()
	opts.Model.Epochs = epochs
	p := Train(samples, opts)
	if len(p.Models()) != 4 {
		t.Fatalf("fixture trained %d heads, want 4", len(p.Models()))
	}
	_, plans, _ := buildSamplesOf(t, db, heldOut, twoDimQuery)
	return p, samples, plans
}

// TestPredictMatchesPerHeadUnion: Predict — one encoder pass, the selected
// heads — returns on every held-out plan the union of each head's own
// (*Model).Predict (one encoder pass per head, as before the trunk), kept to
// the objects the plan scans non-sequentially. Fails if Predict runs only
// some of the heads planModels selects.
func TestPredictMatchesPerHeadUnion(t *testing.T) {
	p, _, plans := headsFixture(t, 15)
	for i, root := range plans {
		relevant := relevantObjects(root)
		ids := p.EncodePlan(root)
		var want []storage.PageID
		for _, m := range p.Models() {
			for _, page := range m.Predict(ids) {
				if relevant[page.Object] {
					want = append(want, page)
				}
			}
		}
		slices.SortFunc(want, func(a, b storage.PageID) int {
			if a.Less(b) {
				return -1
			}
			return 1
		})
		want = slices.Compact(want)
		got := p.Predict(root)
		if len(got) == 0 {
			t.Fatalf("plan %d: nothing predicted; the comparison would be vacuous", i)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("plan %d: Predict returned %d pages, per-head union has %d", i, len(got), len(want))
		}
	}
}

// summedLoss is the training objective evaluated from outside: over all
// samples and heads, the sum-reduced positive-weighted BCE of each head's
// Scores against the sample's pages in that head's label space.
func summedLoss(p *Predictor, samples []TrainSample, posWeight float64) float64 {
	var total float64
	for _, s := range samples {
		accessed := map[storage.PageID]bool{}
		for _, pg := range s.Trace.Pages() {
			accessed[pg] = true
		}
		ids := p.EncodePlan(s.Plan)
		for _, m := range p.Models() {
			for j, prob := range m.Scores(ids) {
				if accessed[m.Labels[j]] {
					total -= posWeight * math.Log(prob)
				} else {
					total -= math.Log1p(-prob)
				}
			}
		}
	}
	return total
}

// TestUpdateTrainsAllHeadsJointly: Update on the training samples themselves
// lowers the loss summed over every head — it is one joint pass, not a loop
// that fine-tunes the shared encoder under one head's loss at a time — and
// leaves every head's label space as it was.
func TestUpdateTrainsAllHeadsJointly(t *testing.T) {
	p, samples, _ := headsFixture(t, 3)
	var labels [][]storage.PageID
	for _, m := range p.Models() {
		labels = append(labels, slices.Clone(m.Labels))
	}
	posWeight := fastOpts().Model.PosWeight
	before := summedLoss(p, samples, posWeight)
	p.Update(samples, 6)
	after := summedLoss(p, samples, posWeight)
	if !(after < before) {
		t.Fatalf("Update on the training samples: summed loss %.3f → %.3f, want lower", before, after)
	}
	if len(p.Models()) != len(labels) {
		t.Fatalf("Update changed the head count: %d → %d", len(labels), len(p.Models()))
	}
	for i, m := range p.Models() {
		if !slices.Equal(m.Labels, labels[i]) {
			t.Fatalf("Update changed head %d's label space", i)
		}
	}
}

// TestConcurrentHeadsMatchSequential (run it under -race): every head handle
// reaches the one arena of its trunk, so the trunk's mutex is all that
// stands between concurrent callers of different heads and a data race.
// Eight goroutines call Predict, Scores and PredictBatch on different heads
// while Predictor.Predict runs on the same predictor; every answer must be
// exactly the sequential one.
func TestConcurrentHeadsMatchSequential(t *testing.T) {
	p, _, plans := headsFixture(t, 8)
	heads := p.Models()
	seqs := make([][]int, len(plans))
	for i, root := range plans {
		seqs[i] = p.EncodePlan(root)
	}
	type answers struct {
		predict [][]storage.PageID
		scores  [][]float64
		batch   [][]storage.PageID
	}
	perHead := func(m *model.Model) answers {
		a := answers{batch: m.PredictBatch(seqs)}
		for _, ids := range seqs {
			a.predict = append(a.predict, m.Predict(ids))
			a.scores = append(a.scores, m.Scores(ids))
		}
		return a
	}
	whole := func() [][]storage.PageID {
		var out [][]storage.PageID
		for _, root := range plans {
			out = append(out, p.Predict(root))
		}
		return out
	}
	want := make([]answers, len(heads))
	for i, m := range heads {
		want[i] = perHead(m)
	}
	wantWhole := whole()

	const workers = 8
	got := make([]answers, workers)
	gotWhole := make([][][]storage.PageID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				got[w] = perHead(heads[w%len(heads)])
				gotWhole[w] = whole()
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if !reflect.DeepEqual(got[w], want[w%len(heads)]) {
			t.Fatalf("worker %d: head %d answered differently under concurrency", w, w%len(heads))
		}
		if !reflect.DeepEqual(gotWhole[w], wantWhole) {
			t.Fatalf("worker %d: Predictor.Predict answered differently under concurrency", w)
		}
	}
}
