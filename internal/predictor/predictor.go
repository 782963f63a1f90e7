// Package predictor orchestrates Pythia's training (Algorithm 1) and
// one-shot inference (Algorithm 3): it serializes query plans, builds the
// token vocabulary, constructs per-object (or combined, or top-k) label
// spaces from training traces, trains one encoder trunk with one decoder
// head per label space, and at query time encodes the serialized plan once
// and runs every head relevant to the plan's non-sequential scans, unioning
// their page predictions.
package predictor

import (
	"cmp"
	"slices"
	"time"

	"github.com/pythia-db/pythia/internal/model"
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/serialize"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
)

// TrainSample pairs a training query's plan with its processed trace: the
// distinct pages it accessed non-sequentially, sorted (trace.Process).
type TrainSample struct {
	Plan  *plan.Node
	Pages []storage.PageID
}

// Options configures training.
type Options struct {
	// Model sizes the shared encoder and the per-object decoder heads.
	Model model.Config
	// Serialize controls plan tokenization.
	Serialize serialize.Config
	// TopK restricts the label spaces to the workload's k most frequently
	// accessed pages, counted across every object (Figure 12h ablation), so
	// the heads hold at most k labels together. Zero disables.
	TopK int
	// Groups overrides the one-head-per-object default: each group's
	// objects share one combined head (Figure 12d trains index+base-table
	// pairs together). Objects absent from all groups keep their own head.
	Groups [][]storage.ObjectID
}

// Predictor is a trained Pythia predictor for one workload.
type Predictor struct {
	vocab  *serialize.Vocab
	serCfg serialize.Config
	// trunk is the workload's one encoder; its heads are the per-object
	// models, and modelObjs[i] lists the objects head i covers.
	trunk     *model.Trunk
	modelObjs [][]storage.ObjectID
	// objModels indexes heads by the objects their labels cover.
	objModels map[storage.ObjectID][]*model.Model

	// TrainTime is the wall-clock time Train spent fitting the trunk.
	TrainTime time.Duration
}

// Train builds and fits a predictor from the workload's samples.
func Train(samples []TrainSample, opts Options) *Predictor {
	start := timeNow()
	p := &Predictor{vocab: serialize.NewVocab(), serCfg: opts.Serialize}

	// Tokenize all plans, growing the vocabulary as they are encoded.
	msamples := p.encode(samples)
	p.vocab.Freeze()

	// Objects accessed non-sequentially anywhere in the workload get models.
	accessed := map[storage.ObjectID]bool{}
	for _, s := range samples {
		for _, pg := range s.Pages {
			accessed[pg.Object] = true
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
	slices.Sort(rest)
	for _, id := range rest {
		groups = append(groups, []storage.ObjectID{id})
	}

	// Build one label space per group. A group that TopK leaves without a
	// label gets no head: a head needs at least one output.
	top := topKLabels(msamples, opts.TopK)
	var labelSets [][]storage.PageID
	for _, g := range groups {
		var labels []storage.PageID
		for _, id := range g {
			labels = append(labels, objectLabels(id, msamples, top)...)
		}
		if len(labels) > 0 {
			labelSets = append(labelSets, labels)
			p.modelObjs = append(p.modelObjs, g)
		}
	}

	// One trunk, one head per label space, trained jointly: the shared
	// encoder is ≈ 98 % of the work, so the heads are not fanned out; each
	// group of samples runs on up to four cores instead (model.Trunk.Train).
	p.trunk = model.NewTrunk(p.vocab.Size(), labelSets, opts.Model)
	p.trunk.Train(msamples)
	p.index()
	p.TrainTime = timeSince(start)
	return p
}

// encode serializes and encodes each sample's plan (a vocabulary that is not
// yet frozen grows) and pairs the tokens with the sample's accessed pages.
func (p *Predictor) encode(samples []TrainSample) []model.Sample {
	out := make([]model.Sample, len(samples))
	for i, s := range samples {
		out[i] = model.Sample{TokenIDs: p.EncodePlan(s.Plan), Pages: s.Pages}
	}
	return out
}

// index builds objModels from the trunk's heads and modelObjs.
func (p *Predictor) index() {
	p.objModels = make(map[storage.ObjectID][]*model.Model)
	for i, m := range p.trunk.Heads() {
		for _, id := range p.modelObjs[i] {
			p.objModels[id] = append(p.objModels[id], m)
		}
	}
}

// topKLabels is the set of the workload's k most frequently accessed pages,
// whatever their object, or nil when k is zero. Ties break toward the lower
// page for determinism.
func topKLabels(samples []model.Sample, k int) map[storage.PageID]bool {
	if k <= 0 {
		return nil
	}
	counts := map[storage.PageID]int{}
	for _, s := range samples {
		for _, pg := range s.Pages {
			counts[pg]++
		}
	}
	all := make([]storage.PageID, 0, len(counts))
	for pg := range counts {
		all = append(all, pg)
	}
	slices.SortFunc(all, func(a, b storage.PageID) int {
		if c := cmp.Compare(counts[b], counts[a]); c != 0 {
			return c
		}
		return a.Compare(b)
	})
	top := map[storage.PageID]bool{}
	for _, pg := range all[:min(k, len(all))] {
		top[pg] = true
	}
	return top
}

// objectLabels builds one object's label space: every page of it observed in
// training, or only those in top when top is set. The paper's decoder has
// one output per page of the object, but a page never positive in training
// converges to "never predict", so leaving it out changes no prediction and
// removes a provably dead output unit.
func objectLabels(id storage.ObjectID, samples []model.Sample, top map[storage.PageID]bool) []storage.PageID {
	seen := map[storage.PageID]bool{}
	var out []storage.PageID
	for _, s := range samples {
		for _, pg := range s.Pages {
			if pg.Object == id && !seen[pg] && (top == nil || top[pg]) {
				seen[pg] = true
				out = append(out, pg)
			}
		}
	}
	slices.SortFunc(out, storage.PageID.Compare)
	return out
}

// Models returns the trained heads (diagnostics: count, label spaces).
func (p *Predictor) Models() []*model.Model { return p.trunk.Heads() }

// ParamCount is the harness's "total model size": the trunk, counted once,
// plus every head.
func (p *Predictor) ParamCount() int { return p.trunk.ParamCount() }

// VocabSize returns the frozen vocabulary size.
func (p *Predictor) VocabSize() int { return p.vocab.Size() }

// relevantObjects returns, sorted and without repeats, the objects touched
// by the plan's non-sequential scan nodes: each index scan's index object
// and its base table's heap (Algorithm 3, line 8: "for all non-sequential
// scan nodes").
func relevantObjects(root *plan.Node) []storage.ObjectID {
	var out []storage.ObjectID
	root.Walk(func(n *plan.Node) {
		if n.Kind == plan.KindIndexScan {
			if n.Index != nil {
				out = append(out, n.Index.Tree.Object().ID)
			}
			if n.Rel != nil {
				out = append(out, n.Rel.Heap.ID)
			}
		}
	})
	slices.Sort(out)
	return slices.Compact(out)
}

// EncodePlan serializes a plan and encodes it against the frozen vocabulary
// — the token-ID sequence inference and the serve tier's cache fingerprint
// both start from.
func (p *Predictor) EncodePlan(root *plan.Node) []int {
	return p.vocab.Encode(serialize.Serialize(root, p.serCfg))
}

// Fingerprint hashes a token-ID sequence with FNV-64a, one byte per octet
// of each ID (little-endian). Equal sequences — identical serialized plans
// — collide by construction; the serve tier keys its prediction cache on
// this value.
//
//pythia:noalloc
func Fingerprint(ids []int) uint64 {
	h := sim.FNVOffset64
	for _, id := range ids {
		v := uint64(id)
		for b := 0; b < 8; b++ {
			h ^= (v >> (8 * b)) & 0xff
			h *= sim.FNVPrime64
		}
	}
	return h
}

// planModels returns the heads relevant to the plan — every head covering
// an object the plan scans non-sequentially, in the order of the objects'
// IDs — plus the sorted relevant objects, which filter combined heads'
// predictions. A plan selects at most a few heads, so a scan of those
// already chosen drops a repeat.
func (p *Predictor) planModels(root *plan.Node) ([]*model.Model, []storage.ObjectID) {
	relevant := relevantObjects(root)
	var ms []*model.Model
	for _, id := range relevant {
		for _, m := range p.objModels[id] {
			if !slices.Contains(ms, m) {
				ms = append(ms, m)
			}
		}
	}
	return ms, relevant
}

// Predict runs Algorithm 3's prediction step on a plan and its token IDs
// (EncodePlan of the plan against this vocabulary): one Infer over every
// head covering an object the plan scans non-sequentially, each head cut at
// its threshold, and the union of their pages in file-storage order. A plan
// with no such object costs no encoder pass at all.
func (p *Predictor) Predict(root *plan.Node, ids []int) []storage.PageID {
	ms, relevant := p.planModels(root)
	if len(ms) == 0 {
		return nil
	}
	var out []storage.PageID
	for i, probs := range p.trunk.Infer(ids, ms) {
		// Keep only pages of relevant objects (a combined head may cover an
		// object the plan does not touch).
		for _, page := range ms[i].Cut(probs) {
			if _, ok := slices.BinarySearch(relevant, page.Object); ok {
				out = append(out, page)
			}
		}
	}
	slices.SortFunc(out, storage.PageID.Compare)
	return slices.Compact(out)
}

// PredictParallel is Predict on the plan's own encoding. It survives for the
// frozen bench/ until the bench unfreeze (ROADMAP).
func (p *Predictor) PredictParallel(root *plan.Node) []storage.PageID {
	return p.Predict(root, p.EncodePlan(root))
}
