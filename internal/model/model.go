// Package model implements Pythia's multilabel classifier: a transformer
// encoder over the serialized query plan feeding a feed-forward decoder with
// one output per data block of a database object (paper §3.3, Figure 3).
//
// A Model owns one label space — a list of (object, page) labels. Pythia's
// standard configuration gives each database object its own model; large
// objects are split into page-range partitions with one model each; the
// Figure 12d ablation builds one combined model spanning an index and its
// base table; the Figure 12h ablation restricts the label space to the top-k
// most frequently accessed pages.
package model

import (
	"sort"
	"sync"

	"github.com/pythia-db/pythia/internal/nn"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
)

// Config sizes and trains a model. The paper's configuration is Dim 100,
// Heads 10, Layers 2, DecoderHidden 800; the experiment defaults are scaled
// down to train hundreds of models on CPU in seconds.
type Config struct {
	Dim           int
	Heads         int
	Layers        int
	FFHidden      int // defaults to 4×Dim
	DecoderHidden int
	Epochs        int
	LR            float64
	PosWeight     float64 // BCE positive-class weight (default 2)
	Threshold     float64 // sigmoid cutoff for predicting a page (default 0.5)
	Seed          uint64
}

// DefaultConfig returns the scaled-down training configuration used by the
// experiment harness.
func DefaultConfig() Config {
	return Config{
		Dim:           32,
		Heads:         4,
		Layers:        2,
		DecoderHidden: 64,
		Epochs:        50,
		LR:            1e-3,
		PosWeight:     5,
		Threshold:     0.5,
		Seed:          1,
	}
}

// PaperConfig returns the paper's full-size hyperparameters (§5.1).
func PaperConfig() Config {
	c := DefaultConfig()
	c.Dim = 100
	c.Heads = 10
	c.DecoderHidden = 800
	return c
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Dim <= 0 {
		c.Dim = d.Dim
	}
	if c.Heads <= 0 {
		c.Heads = d.Heads
	}
	if c.Layers <= 0 {
		c.Layers = d.Layers
	}
	if c.DecoderHidden <= 0 {
		c.DecoderHidden = d.DecoderHidden
	}
	if c.Epochs <= 0 {
		c.Epochs = d.Epochs
	}
	if c.LR <= 0 {
		c.LR = d.LR
	}
	if c.PosWeight <= 0 {
		c.PosWeight = d.PosWeight
	}
	if c.Threshold <= 0 {
		c.Threshold = d.Threshold
	}
	return c
}

// Sample is one training example: the encoded plan tokens and the pages the
// query accessed non-sequentially (any object; the model selects the subset
// in its own label space).
type Sample struct {
	TokenIDs []int
	Pages    []storage.PageID
}

// Model is one trained multilabel classifier over a fixed label space.
type Model struct {
	Labels []storage.PageID // label j ↔ Labels[j]

	cfg      Config
	labelIdx map[storage.PageID]int
	enc      *nn.Encoder
	dec      *nn.Decoder

	// rt carries the model's scratch arena. The arena is single-owner, so
	// mu serializes Train/Predict/Scores on one model; distinct models stay
	// fully concurrent (the predictor's fan-out).
	rt nn.Runtime
	mu sync.Mutex

	// targetBuf is the reusable 0/1 target vector for training steps.
	targetBuf []float64
}

// New builds an untrained model over the label space for a vocabulary of
// vocabSize tokens. Labels must be non-empty.
func New(vocabSize int, labels []storage.PageID, cfg Config) *Model {
	if len(labels) == 0 {
		panic("model: empty label space")
	}
	cfg = cfg.withDefaults()
	r := sim.NewRand(cfg.Seed)
	m := &Model{
		Labels:   labels,
		cfg:      cfg,
		labelIdx: make(map[storage.PageID]int, len(labels)),
		enc: nn.NewEncoder(nn.EncoderConfig{
			Vocab: vocabSize, Dim: cfg.Dim, Heads: cfg.Heads,
			Layers: cfg.Layers, FFHidden: cfg.FFHidden,
		}, r),
	}
	m.dec = nn.NewDecoder("dec", cfg.Dim, cfg.DecoderHidden, len(labels), r)
	m.rt = nn.Runtime{Arena: nn.NewArena()}
	m.enc.SetRuntime(m.rt)
	m.dec.SetRuntime(m.rt)
	// Start every page logit clearly negative: almost all labels are 0 for
	// any one query, so beginning from "predict nothing" lets training
	// spend its gradient budget on the positives instead of first pushing
	// thousands of outputs below threshold.
	for i := range m.dec.L2.Bias.W.Data {
		m.dec.L2.Bias.W.Data[i] = -2
	}
	for i, l := range labels {
		m.labelIdx[l] = i
	}
	return m
}

// ParamCount returns the model's scalar parameter count ("model size").
func (m *Model) ParamCount() int {
	return nn.ParamCount(append(m.enc.Params(), m.dec.Params()...))
}

// targets fills the reusable 0/1 vector for a sample, ignoring pages
// outside the label space (they belong to other models or partitions).
func (m *Model) targets(pages []storage.PageID) []float64 {
	if m.targetBuf == nil {
		m.targetBuf = make([]float64, len(m.Labels))
	}
	t := m.targetBuf
	for i := range t {
		t[i] = 0
	}
	for _, p := range pages {
		if j, ok := m.labelIdx[p]; ok {
			t[j] = 1
		}
	}
	return t
}

// Train runs end-to-end training (encoder and decoder jointly, as in the
// paper) over the samples and returns the final mean epoch loss.
func (m *Model) Train(samples []Sample) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	params := append(m.enc.Params(), m.dec.Params()...)
	opt := nn.NewAdam(m.cfg.LR, params)
	opt.Clip = 5
	// Sum reduction keeps the gradient scale independent of the label-space
	// size, so models over large objects train as fast as small ones.
	bce := nn.BCEWithLogits{PosWeight: m.cfg.PosWeight, Sum: true, Scratch: m.rt.Arena}
	r := sim.NewRand(m.cfg.Seed ^ 0x5eed)

	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	var epochLoss float64
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss = 0
		for _, i := range order {
			s := samples[i]
			// Recycle the previous step's activations and scratch: after
			// the first step the forward/backward pass allocates nothing.
			m.rt.Arena.Release()
			opt.ZeroGrad()
			rep := m.enc.Forward(s.TokenIDs)
			logits := m.dec.Forward(rep)
			loss, dLogits := bce.Loss(logits, m.targets(s.Pages))
			epochLoss += loss
			dRep := m.dec.Backward(dLogits)
			m.enc.Backward(dRep)
			opt.Step()
		}
		if len(samples) > 0 {
			epochLoss /= float64(len(samples))
		}
	}
	return epochLoss
}

// Predict runs one-shot inference: the pages whose sigmoid probability
// crosses the threshold, in label (file-storage) order. Safe for
// concurrent callers (inference on one model is serialized; run distinct
// models concurrently for parallel inference, as the predictor does).
func (m *Model) Predict(tokenIDs []int) []storage.PageID {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rt.Arena.Release()
	logits := m.dec.Forward(m.enc.Forward(tokenIDs))
	var out []storage.PageID
	for j, x := range logits.Data {
		if nn.Sigmoid(x) >= m.cfg.Threshold {
			out = append(out, m.Labels[j])
		}
	}
	return out
}

// PredictBatch runs inference for several token sequences under one lock.
// It amortises next to nothing: the encoder is ≈ 98 % of a prediction's
// FLOPs and runs once per sequence (sequence lengths differ), exactly as in
// Predict; only the decoder, the other ≈ 2 %, sees the B representations as
// one B×Dim matrix. Each decoder output row is computed with the same
// k-ascending accumulation order as the 1×Dim case, so results are bitwise
// identical to calling Predict per sequence (asserted by
// TestPredictBatchMatchesPredict).
func (m *Model) PredictBatch(seqs [][]int) [][]storage.PageID {
	out := make([][]storage.PageID, len(seqs))
	if len(seqs) == 0 {
		return out
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rt.Arena.Release()
	// Encode per sequence, gathering the 1×Dim representations into a B×Dim
	// matrix. reps is allocated before the encoder passes so the arena can
	// recycle their scratch without touching it.
	reps := m.rt.Arena.Get(len(seqs), m.cfg.Dim)
	for i, ids := range seqs {
		copy(reps.Row(i), m.enc.Forward(ids).Row(0))
	}
	logits := m.dec.Forward(reps)
	for i := range seqs {
		var pages []storage.PageID
		for j, x := range logits.Row(i) {
			if nn.Sigmoid(x) >= m.cfg.Threshold {
				pages = append(pages, m.Labels[j])
			}
		}
		out[i] = pages
	}
	return out
}

// Scores returns the per-label probabilities (diagnostics and tests).
func (m *Model) Scores(tokenIDs []int) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rt.Arena.Release()
	logits := m.dec.Forward(m.enc.Forward(tokenIDs))
	out := make([]float64, len(logits.Data))
	for i, x := range logits.Data {
		out[i] = nn.Sigmoid(x)
	}
	return out
}

// ObjectLabels builds the full label space of one object: every page.
func ObjectLabels(obj *storage.Object) []storage.PageID {
	out := make([]storage.PageID, obj.Pages)
	for i := range out {
		out[i] = storage.PageID{Object: obj.ID, Page: storage.PageNum(i)}
	}
	return out
}

// PartitionLabels splits an object's pages into partitions of at most
// maxPages each — "we split large tables into several smaller partitions and
// then train one model for each" (§3.3).
func PartitionLabels(obj *storage.Object, maxPages int) [][]storage.PageID {
	if maxPages <= 0 {
		return [][]storage.PageID{ObjectLabels(obj)}
	}
	var out [][]storage.PageID
	for start := 0; start < int(obj.Pages); start += maxPages {
		end := start + maxPages
		if end > int(obj.Pages) {
			end = int(obj.Pages)
		}
		part := make([]storage.PageID, 0, end-start)
		for p := start; p < end; p++ {
			part = append(part, storage.PageID{Object: obj.ID, Page: storage.PageNum(p)})
		}
		out = append(out, part)
	}
	return out
}

// TopKLabels restricts a label space to the k pages most frequently accessed
// across the training samples (Figure 12h). Ties break toward lower offsets
// for determinism.
func TopKLabels(samples []Sample, obj storage.ObjectID, k int) []storage.PageID {
	counts := make(map[storage.PageID]int)
	for _, s := range samples {
		for _, p := range s.Pages {
			if p.Object == obj {
				counts[p]++
			}
		}
	}
	all := make([]storage.PageID, 0, len(counts))
	for p := range counts {
		all = append(all, p)
	}
	sort.Slice(all, func(i, j int) bool {
		if counts[all[i]] != counts[all[j]] {
			return counts[all[i]] > counts[all[j]]
		}
		return all[i].Less(all[j])
	})
	if k < len(all) {
		all = all[:k]
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })
	return all
}

// CombinedLabels concatenates two objects' label spaces — the single
// index+table model of the Figure 12d ablation.
func CombinedLabels(objs ...*storage.Object) []storage.PageID {
	var out []storage.PageID
	for _, o := range objs {
		out = append(out, ObjectLabels(o)...)
	}
	return out
}
