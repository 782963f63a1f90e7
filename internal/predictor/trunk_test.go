package predictor

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
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
	p, samples, plans := twoDimFixture(t, epochs, nil)
	if len(p.Models()) != 4 {
		t.Fatalf("fixture trained %d heads, want 4", len(p.Models()))
	}
	return p, samples, plans
}

// twoDimFixture trains on twoDimQuery plans, grouping heads as groups says
// (nil: one head per object), and plans a few held-out queries.
func twoDimFixture(t *testing.T, epochs int, groups func(db *catalog.Database) [][]storage.ObjectID) (*Predictor, []TrainSample, []*plan.Node) {
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
	samples, _ := buildSamplesOf(t, db, trainParams, twoDimQuery)
	opts := fastOpts()
	opts.Model.Epochs = epochs
	if groups != nil {
		opts.Groups = groups(db)
	}
	p := Train(samples, opts)
	_, plans := buildSamplesOf(t, db, heldOut, twoDimQuery)
	return p, samples, plans
}

// TestPredictMatchesPerHeadUnion: Predict — one Infer over the selected
// heads — returns on every held-out plan the union of each head's own
// Cut(Scores) (one encoder pass per head, as before the trunk), kept to the
// objects the plan scans non-sequentially. Fails if Predict runs only some
// of the heads planModels selects. The combined case is Figure 12d's shape
// with one heap grouped with two indexes, so two heads share its pages: a
// page either head predicts is predicted, once.
func TestPredictMatchesPerHeadUnion(t *testing.T) {
	combined := func(db *catalog.Database) [][]storage.ObjectID {
		heap := db.Relation("item").Heap.ID
		return [][]storage.ObjectID{
			{heap, db.Relation("item").IndexOn("i_sk").Tree.Object().ID},
			{heap, db.Relation("item2").IndexOn("i2_sk").Tree.Object().ID},
		}
	}
	for _, c := range []struct {
		name   string
		groups func(*catalog.Database) [][]storage.ObjectID
		heads  int
	}{
		{"per object", nil, 4},
		{"heap in two heads", combined, 3},
	} {
		p, _, plans := twoDimFixture(t, 15, c.groups)
		if len(p.Models()) != c.heads {
			t.Fatalf("%s: trained %d heads, want %d", c.name, len(p.Models()), c.heads)
		}
		for i, root := range plans {
			relevant := relevantObjects(root)
			ids := p.EncodePlan(root)
			var want []storage.PageID
			for _, m := range p.Models() {
				for _, page := range m.Cut(m.Scores(ids)) {
					if slices.Contains(relevant, page.Object) {
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
			got := p.Predict(root, ids)
			if len(got) == 0 {
				t.Fatalf("%s, plan %d: nothing predicted; the comparison would be vacuous", c.name, i)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s, plan %d: Predict returned %d pages, per-head union has %d", c.name, i, len(got), len(want))
			}
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
		for _, pg := range s.Pages {
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

// TestConcurrentHeadsMatchSequential (run it under -race): inference on a
// trunk runs concurrently, each call on a view of its own — the trunk's
// weights with a private arena and private activation caches — so two calls
// that shared a view, or wrote a cache on the trunk itself, would race here.
// Eight goroutines call Predict and Scores on different heads while
// Predictor.Predict runs on the same predictor; every answer must be exactly
// the sequential one.
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
	}
	perHead := func(m *model.Model) answers {
		var a answers
		for _, ids := range seqs {
			a.predict = append(a.predict, m.Predict(ids))
			a.scores = append(a.scores, m.Scores(ids))
		}
		return a
	}
	whole := func() [][]storage.PageID {
		var out [][]storage.PageID
		for _, root := range plans {
			out = append(out, p.Predict(root, p.EncodePlan(root)))
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

// allScores is every head's Scores on every sequence, head-major.
func allScores(p *Predictor, seqs [][]int) [][]float64 {
	var out [][]float64
	for _, m := range p.Models() {
		for _, ids := range seqs {
			out = append(out, m.Scores(ids))
		}
	}
	return out
}

// clone rebuilds p from its state: the same weights in a predictor of its
// own.
func clone(t *testing.T, p *Predictor) *Predictor {
	t.Helper()
	q, err := FromState(p.State())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestUpdateStartsFreshOptimizer: Update trains with a fresh optimizer, so
// on a just-trained predictor it moves the weights exactly as on a clone
// rebuilt from the predictor's state, which has never been trained. An
// optimizer that inherited the training's Adam moments would not.
func TestUpdateStartsFreshOptimizer(t *testing.T) {
	p, samples, _ := headsFixture(t, 3)
	q := clone(t, p)
	p.Update(samples, 2)
	q.Update(samples, 2)
	if !reflect.DeepEqual(p.State(), q.State()) {
		t.Fatal("Update on a trained predictor and on its FromState clone trained different weights")
	}
}

// TestPredictDuringUpdate (run it under -race): readers predict while one
// Predictor.Update trains the same trunk. Training holds the trunk's write
// lock, so every concurrent answer — one Scores or Predict call — is the
// sequential one from before the Update or the one from after it, never one
// computed over half-written weights, and once a reader has seen the after
// side it never sees the before side again. Each reader's first round
// precedes the Update and its last follows it, so both sides are seen.
func TestPredictDuringUpdate(t *testing.T) {
	p, samples, plans := headsFixture(t, 4)
	seqs := make([][]int, len(plans))
	for i, root := range plans {
		seqs[i] = p.EncodePlan(root)
	}
	// ask makes every call once; each element is one call's answer.
	ask := func(q *Predictor) []any {
		var out []any
		for _, s := range allScores(q, seqs) {
			out = append(out, s)
		}
		for _, root := range plans {
			out = append(out, q.Predict(root, q.EncodePlan(root)))
		}
		return out
	}
	ref, live := clone(t, p), clone(t, p)
	before := ask(ref)
	ref.Update(samples, 2)
	after := ask(ref)
	if reflect.DeepEqual(before, after) {
		t.Fatal("Update moved no answer; the test would be vacuous")
	}

	const readers = 4
	var started, finished sync.WaitGroup
	var updated atomic.Bool
	for r := 0; r < readers; r++ {
		started.Add(1)
		finished.Add(1)
		go func(r int) {
			defer finished.Done()
			seenAfter := false
			for round := 0; ; round++ {
				last := updated.Load()
				for i, got := range ask(live) {
					isBefore, isAfter := reflect.DeepEqual(got, before[i]), reflect.DeepEqual(got, after[i])
					switch {
					case round == 0 && !isBefore:
						t.Errorf("reader %d, call %d: the answer before the Update is not the sequential one", r, i)
					case last && !isAfter:
						t.Errorf("reader %d, call %d: the answer after the Update is not the sequential one", r, i)
					case !isBefore && !isAfter:
						t.Errorf("reader %d, round %d, call %d: the answer matches neither side of the Update", r, round, i)
					case seenAfter && !isAfter:
						t.Errorf("reader %d, round %d, call %d: the before side again after the after side", r, round, i)
					}
					seenAfter = seenAfter || !isBefore
				}
				if round == 0 {
					started.Done()
				}
				if last {
					return
				}
			}
		}(r)
	}
	started.Wait()
	live.Update(samples, 2)
	updated.Store(true)
	finished.Wait()
}

// TestViewsSeeTrainedWeights: a trunk's views share its parameters rather
// than copying them. Views built by predictions before an Update answer
// after it exactly as a trunk rebuilt from the updated state does (via
// FromState, TrunkFromState), and the Update moved every tensor of that
// state. A view holding a copy of a weight either keeps the old value or,
// when it is the view Update trains on, gathers that weight's gradient in
// its copy, so the optimizer never moves the trunk's.
func TestViewsSeeTrainedWeights(t *testing.T) {
	p, samples, plans := headsFixture(t, 4)
	seqs := make([][]int, len(plans))
	for i, root := range plans {
		seqs[i] = p.EncodePlan(root)
	}
	// weights copies the state's tensors out, in state order.
	weights := func() (names []string, ws [][]float64) {
		s := p.State().Trunk
		for _, w := range s.Encoder {
			names, ws = append(names, w.Name), append(ws, slices.Clone(w.W))
		}
		for _, h := range s.Heads {
			for _, w := range h.Decoder {
				names, ws = append(names, w.Name), append(ws, slices.Clone(w.W))
			}
		}
		return names, ws
	}
	const workers = 4
	concurrently := func() [][][]float64 {
		out := make([][][]float64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				out[w] = allScores(p, seqs)
			}(w)
		}
		wg.Wait()
		return out
	}
	concurrently()
	names, old := weights()
	p.Update(samples, 2)
	_, trained := weights()
	for i := range old {
		if slices.Equal(old[i], trained[i]) {
			t.Fatalf("Update left %s (tensor %d) as it was", names[i], i)
		}
	}
	want := allScores(clone(t, p), seqs)
	for w, got := range concurrently() {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("worker %d: a view built before the Update answers differently from the restored state", w)
		}
	}
}
