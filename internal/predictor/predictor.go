// Package predictor orchestrates Pythia's training (Algorithm 1) and
// one-shot inference (Algorithm 3): it serializes query plans, builds the
// token vocabulary, constructs per-object (or combined, or top-k) label
// spaces from training traces, trains one multilabel model per label space,
// and at query time feeds the serialized plan to every model relevant to the
// plan's non-sequential scans, unioning their page predictions.
package predictor

import (
	"sort"
	"sync"
	"time"

	"github.com/pythia-db/pythia/internal/model"
	"github.com/pythia-db/pythia/internal/nn"
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/serialize"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/trace"
)

// TrainSample pairs a training query's plan with its processed trace.
type TrainSample struct {
	Plan  *plan.Node
	Trace *trace.Processed
}

// Options configures training.
type Options struct {
	// Model sizes the per-object classifiers.
	Model model.Config
	// Serialize controls plan tokenization.
	Serialize serialize.Config
	// MaxPartitionPages splits an object's label space into partitions of
	// at most this many pages, each with its own model (§3.3). Zero means
	// no partitioning.
	MaxPartitionPages int
	// ObservedOnly restricts each label space to pages actually observed in
	// the training traces. Pages never positive in training converge to
	// "never predict" anyway, so this changes no prediction — it only
	// removes provably dead output units. Disable to train the paper's full
	// page-per-output-node decoder.
	ObservedOnly bool
	// TopK further restricts each object's labels to its k most frequently
	// accessed pages (Figure 12h ablation). Zero disables.
	TopK int
	// Groups overrides the one-model-per-object default: each group's
	// objects share one combined model (Figure 12d trains index+base-table
	// pairs together). Objects absent from all groups keep their own model.
	Groups [][]storage.ObjectID
}

// Predictor is a trained Pythia predictor for one workload.
type Predictor struct {
	vocab  *serialize.Vocab
	serCfg serialize.Config
	models []*model.Model
	// modelObjs[i] lists the objects models[i] covers (kept for matching
	// and persistence).
	modelObjs [][]storage.ObjectID
	// objModels indexes models by the objects their labels cover.
	objModels map[storage.ObjectID][]*model.Model

	// TrainTime is the wall-clock time Train spent fitting models; the
	// Figure 9 cost comparison against sequence models reports it.
	TrainTime time.Duration
}

// Train builds and fits a predictor from the workload's samples.
func Train(reg *storage.Registry, samples []TrainSample, opts Options) *Predictor {
	start := timeNow()
	p := &Predictor{
		vocab:     serialize.NewVocab(),
		serCfg:    opts.Serialize,
		objModels: make(map[storage.ObjectID][]*model.Model),
	}

	// Tokenize all plans and build the vocabulary.
	msamples := make([]model.Sample, len(samples))
	for i, s := range samples {
		toks := serialize.Serialize(s.Plan, p.serCfg)
		p.vocab.AddAll(toks)
		msamples[i] = model.Sample{Pages: s.Trace.Pages()}
	}
	p.vocab.Freeze()
	for i, s := range samples {
		msamples[i].TokenIDs = p.vocab.Encode(serialize.Serialize(s.Plan, p.serCfg))
	}

	// Objects accessed non-sequentially anywhere in the workload get models.
	accessed := map[storage.ObjectID]bool{}
	for _, s := range samples {
		for id := range s.Trace.PerObject {
			accessed[id] = true
		}
	}

	// Resolve groups: explicit groups first, then singleton groups for the
	// remaining accessed objects, in ID order for determinism.
	grouped := map[storage.ObjectID]bool{}
	var groups [][]storage.ObjectID
	for _, g := range opts.Groups {
		var kept []storage.ObjectID
		for _, id := range g {
			if accessed[id] {
				kept = append(kept, id)
				grouped[id] = true
			}
		}
		if len(kept) > 0 {
			groups = append(groups, kept)
		}
	}
	var rest []storage.ObjectID
	for id := range accessed {
		if !grouped[id] {
			rest = append(rest, id)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	for _, id := range rest {
		groups = append(groups, []storage.ObjectID{id})
	}

	// Build one label space per group.
	type job struct {
		labels []storage.PageID
		objs   []storage.ObjectID
	}
	var jobs []job
	seed := opts.Model.Seed
	for _, g := range groups {
		var labels []storage.PageID
		for _, id := range g {
			labels = append(labels, p.objectLabels(reg, id, msamples, opts)...)
		}
		if len(labels) == 0 {
			continue
		}
		if opts.MaxPartitionPages > 0 && len(labels) > opts.MaxPartitionPages {
			for start := 0; start < len(labels); start += opts.MaxPartitionPages {
				end := start + opts.MaxPartitionPages
				if end > len(labels) {
					end = len(labels)
				}
				jobs = append(jobs, job{labels: labels[start:end], objs: g})
			}
		} else {
			jobs = append(jobs, job{labels: labels, objs: g})
		}
	}

	// Train one model per job.
	p.models = make([]*model.Model, len(jobs))
	trainOne := func(i int) {
		cfg := opts.Model
		cfg.Seed = seed + uint64(i)*0x9e37
		m := model.New(p.vocab.Size(), jobs[i].labels, cfg)
		m.Train(msamples)
		p.models[i] = m
	}
	// Models are the unit of parallelism ("model inferences can be
	// parallelized", §3.3): at most nn.DefaultThreads() train at once. Each
	// job writes only its own slot, and per-model seeds depend only on the
	// job index, so the schedule cannot affect the result.
	workers := nn.DefaultThreads()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				trainOne(i)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, j := range jobs {
		p.modelObjs = append(p.modelObjs, j.objs)
		for _, id := range j.objs {
			p.objModels[id] = append(p.objModels[id], p.models[i])
		}
	}
	p.TrainTime = timeSince(start)
	return p
}

// objectLabels builds one object's label space under the options.
func (p *Predictor) objectLabels(reg *storage.Registry, id storage.ObjectID, samples []model.Sample, opts Options) []storage.PageID {
	if opts.TopK > 0 {
		return model.TopKLabels(samples, id, opts.TopK)
	}
	if opts.ObservedOnly {
		seen := map[storage.PageID]bool{}
		var out []storage.PageID
		for _, s := range samples {
			for _, pg := range s.Pages {
				if pg.Object == id && !seen[pg] {
					seen[pg] = true
					out = append(out, pg)
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
		return out
	}
	obj := reg.Lookup(id)
	if obj == nil {
		panic("predictor: trace references unknown object")
	}
	return model.ObjectLabels(obj)
}

// Models returns the trained models (diagnostics: count, sizes).
func (p *Predictor) Models() []*model.Model { return p.models }

// ParamCount sums all models' parameters — the harness's "total model size".
func (p *Predictor) ParamCount() int {
	n := 0
	for _, m := range p.models {
		n += m.ParamCount()
	}
	return n
}

// VocabSize returns the frozen vocabulary size.
func (p *Predictor) VocabSize() int { return p.vocab.Size() }

// relevantObjects collects the objects touched by the plan's non-sequential
// scan nodes: each index scan's index object and its base table's heap
// (Algorithm 3, line 8: "for all non-sequential scan nodes").
func relevantObjects(root *plan.Node) map[storage.ObjectID]bool {
	out := map[storage.ObjectID]bool{}
	root.Walk(func(n *plan.Node) {
		if n.Kind == plan.KindIndexScan {
			if n.Index != nil {
				out[n.Index.Tree.Object().ID] = true
			}
			if n.Rel != nil {
				out[n.Rel.Heap.ID] = true
			}
		}
	})
	return out
}

// EncodePlan serializes a plan and encodes it against the frozen vocabulary
// — the token-ID sequence inference and the serve tier's cache fingerprint
// both start from.
func (p *Predictor) EncodePlan(root *plan.Node) []int {
	return p.vocab.Encode(serialize.Serialize(root, p.serCfg))
}

// FNV-64a parameters (hash/fnv spelled out so the hot path hashes a []int
// without converting to bytes or allocating a hash.Hash64).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint hashes a token-ID sequence with FNV-64a, one byte per octet
// of each ID (little-endian). Equal sequences — identical serialized plans
// — collide by construction; the serve tier keys its prediction cache on
// this value.
//
//pythia:noalloc
func Fingerprint(ids []int) uint64 {
	h := uint64(fnvOffset64)
	for _, id := range ids {
		v := uint64(id)
		for b := 0; b < 8; b++ {
			h ^= (v >> (8 * b)) & 0xff
			h *= fnvPrime64
		}
	}
	return h
}

// planModels returns the models relevant to the plan — every model covering
// an object the plan scans non-sequentially — plus the relevant-object set
// used to filter combined models' predictions. Walk the relevant objects in
// ID order so the model list (and with it any parallel-inference work
// assignment) never depends on map order.
func (p *Predictor) planModels(root *plan.Node) ([]*model.Model, map[storage.ObjectID]bool) {
	relevant := relevantObjects(root)
	objs := make([]storage.ObjectID, 0, len(relevant))
	for id := range relevant {
		objs = append(objs, id)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	seen := map[*model.Model]bool{}
	var ms []*model.Model
	for _, id := range objs {
		for _, m := range p.objModels[id] {
			if !seen[m] {
				seen[m] = true
				ms = append(ms, m)
			}
		}
	}
	return ms, relevant
}

// collect filters one model's predictions to relevant objects, merges into
// out, and returns it; callers sort+dedupe once at the end.
func collect(out []storage.PageID, pred []storage.PageID, relevant map[storage.ObjectID]bool) []storage.PageID {
	for _, page := range pred {
		if relevant[page.Object] {
			out = append(out, page)
		}
	}
	return out
}

// Predict runs Algorithm 3's prediction step: serialize the plan once, feed
// it to every model covering an object the plan scans non-sequentially, and
// return the union of predicted pages in file-storage order.
func (p *Predictor) Predict(root *plan.Node) []storage.PageID {
	return p.predict(root, false)
}

// PredictParallel is Predict with concurrent model inference.
func (p *Predictor) PredictParallel(root *plan.Node) []storage.PageID {
	return p.predict(root, true)
}

func (p *Predictor) predict(root *plan.Node, parallel bool) []storage.PageID {
	ids := p.EncodePlan(root)
	ms, relevant := p.planModels(root)
	preds := make([][]storage.PageID, len(ms))
	if parallel && len(ms) > 1 {
		// The last model runs on the calling goroutine, so k models cost
		// k−1 hand-offs and a single-model plan costs none.
		last := len(ms) - 1
		var wg sync.WaitGroup
		for i, m := range ms[:last] {
			wg.Add(1)
			go func(i int, m *model.Model) {
				defer wg.Done()
				preds[i] = m.Predict(ids)
			}(i, m)
		}
		preds[last] = ms[last].Predict(ids)
		wg.Wait()
	} else {
		for i, m := range ms {
			preds[i] = m.Predict(ids)
		}
	}
	var out []storage.PageID
	for _, pr := range preds {
		// Keep only pages of relevant objects (a combined model may cover
		// an object the plan does not touch).
		out = collect(out, pr, relevant)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return dedupe(out)
}

func dedupe(pages []storage.PageID) []storage.PageID {
	if len(pages) < 2 {
		return pages
	}
	out := pages[:1]
	for _, p := range pages[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}
