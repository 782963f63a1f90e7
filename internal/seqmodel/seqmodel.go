// Package seqmodel implements the sequence-prediction baseline of §5.2
// ("Predicting block access patterns using Transformers"): an autoregressive
// transformer that, given the previous K block accesses, predicts the next
// block — the NLP formulation the paper argues against. Two variants exist,
// exactly as in the paper: one trained on the raw trace (with repeats) and
// one on the deduplicated trace; context windows of 32 and 64 are the
// evaluated configurations.
//
// The point of the baseline is the *cost structure*: similar prediction
// accuracy to Pythia, but training touches every sequence position and
// inference pays one full forward pass per generated block, so predicting a
// query's access set is orders of magnitude slower than Pythia's one-shot
// classification. Train and inference wall-clock times are recorded so the
// Figure 9 comparison can report the ratios.
package seqmodel

import (
	"math"
	"time"

	"github.com/pythia-db/pythia/internal/nn"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/workload"
)

// Config shapes the baseline.
type Config struct {
	// Context is the attention window K (the paper evaluates 32 and 64).
	Context int
	// Dedup selects the deduplicated-trace variant.
	Dedup bool
	// Dim / Heads / Epochs / LR size the model and training.
	Dim    int
	Heads  int
	Epochs int
	LR     float64
	// MaxPositionsPerQuery caps training positions sampled per trace (the
	// full traces would make training intractable, which is the paper's
	// observation; the cap keeps the reproduction runnable while preserving
	// the per-position cost structure).
	MaxPositionsPerQuery int
	// MaxGenerate caps autoregressive generation length at inference.
	MaxGenerate int
	Seed        uint64
}

// DefaultConfig returns the context-32 raw-trace variant at reproduction
// scale.
func DefaultConfig() Config {
	return Config{
		Context:              32,
		Dim:                  16,
		Heads:                2,
		Epochs:               4,
		LR:                   3e-3,
		MaxPositionsPerQuery: 40,
		MaxGenerate:          400,
		Seed:                 5,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Context <= 0 {
		c.Context = d.Context
	}
	if c.Dim <= 0 {
		c.Dim = d.Dim
	}
	if c.Heads <= 0 {
		c.Heads = d.Heads
	}
	if c.Epochs <= 0 {
		c.Epochs = d.Epochs
	}
	if c.LR <= 0 {
		c.LR = d.LR
	}
	if c.MaxPositionsPerQuery <= 0 {
		c.MaxPositionsPerQuery = d.MaxPositionsPerQuery
	}
	if c.MaxGenerate <= 0 {
		c.MaxGenerate = d.MaxGenerate
	}
	return c
}

// NonSeqSequence extracts an instance's non-sequential block sequence in
// access order — raw (with repeats) or first-occurrence deduplicated.
func NonSeqSequence(inst *workload.Instance, dedup bool) []storage.PageID {
	var out []storage.PageID
	seen := map[storage.PageID]bool{}
	for _, r := range inst.Requests {
		if r.Sequential {
			continue
		}
		if dedup {
			if seen[r.Page] {
				continue
			}
			seen[r.Page] = true
		}
		out = append(out, r.Page)
	}
	return out
}

// Model is a trained sequence predictor.
type Model struct {
	cfg Config

	vocab map[storage.PageID]int
	pages []storage.PageID // id → page (id 0 is BOS)
	enc   *nn.Encoder
	head  *nn.Linear
	rt    nn.Runtime
	// TrainTime and InferTime record wall-clock costs for the Figure 9
	// comparison. InferTime accumulates across Predict calls;
	// InferredTokens counts generated blocks.
	TrainTime      time.Duration
	InferTime      time.Duration
	InferredTokens int
}

const bosID = 0

// Train fits the baseline on the given block sequences.
func Train(seqs [][]storage.PageID, cfg Config) *Model {
	cfg = cfg.withDefaults()
	start := timeNow()
	m := &Model{cfg: cfg, vocab: map[storage.PageID]int{}}
	m.pages = append(m.pages, storage.PageID{}) // BOS placeholder
	encode := func(p storage.PageID) int {
		if id, ok := m.vocab[p]; ok {
			return id
		}
		id := len(m.pages)
		m.vocab[p] = id
		m.pages = append(m.pages, p)
		return id
	}
	encoded := make([][]int, len(seqs))
	for i, s := range seqs {
		ids := make([]int, len(s))
		for j, p := range s {
			ids[j] = encode(p)
		}
		encoded[i] = ids
	}

	r := sim.NewRand(cfg.Seed)
	m.enc = nn.NewEncoder(nn.EncoderConfig{
		Vocab: len(m.pages), Dim: cfg.Dim, Heads: cfg.Heads, Layers: 1,
	}, r)
	m.head = nn.NewLinear("seq.head", cfg.Dim, len(m.pages), r)
	m.rt = nn.Runtime{Arena: nn.NewArena()}
	m.enc.SetRuntime(m.rt)
	m.head.SetRuntime(m.rt)
	params := append(m.enc.Params(), m.head.Params()...)
	opt := nn.NewAdam(cfg.LR, params)
	opt.Clip = 5

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, ids := range encoded {
			if len(ids) == 0 {
				continue
			}
			// Sample positions uniformly (deterministically) along the trace.
			positions := len(ids)
			stride := 1
			if positions > cfg.MaxPositionsPerQuery {
				stride = positions / cfg.MaxPositionsPerQuery
			}
			for pos := 0; pos < positions; pos += stride {
				ctx := m.context(ids, pos)
				m.rt.Arena.Release()
				opt.ZeroGrad()
				logits := m.head.Forward(m.enc.Forward(ctx))
				dLogits := m.crossEntropyGrad(logits, ids[pos])
				m.enc.Backward(m.head.Backward(dLogits))
				opt.Step()
			}
		}
	}
	m.TrainTime = timeSince(start)
	return m
}

// context builds the window of up to Context ids preceding pos, with BOS at
// the front when the history is short.
func (m *Model) context(ids []int, pos int) []int {
	lo := pos - m.cfg.Context
	if lo < 0 {
		lo = 0
	}
	ctx := make([]int, 0, pos-lo+1)
	ctx = append(ctx, bosID)
	ctx = append(ctx, ids[lo:pos]...)
	return ctx
}

// crossEntropyGrad returns dLogits for -log softmax(logits)[target],
// scratch-allocated so the per-position training loop stays churn-free.
func (m *Model) crossEntropyGrad(logits *nn.Mat, target int) *nn.Mat {
	grad := m.rt.Arena.Get(logits.Rows, logits.Cols)
	copy(grad.Data, logits.Data)
	grad.SoftmaxRows()
	grad.Data[target]--
	return grad
}

// VocabSize returns the number of distinct blocks plus BOS.
func (m *Model) VocabSize() int { return len(m.pages) }

// Predict generates up to n blocks autoregressively from an empty history.
func (m *Model) Predict(n int) []storage.PageID { return m.PredictFrom(nil, n) }

// PredictFrom seeds the model with the query's first observed block accesses
// (the "past K accesses" the sequence formulation conditions on) and then
// generates up to n blocks autoregressively (greedy decoding,
// repetition-avoiding: a block already emitted is skipped in favor of the
// next best), returning the distinct predicted set in file-storage order.
// Each generated block costs one full forward pass — the step-wise inference
// the paper deems impractical for prefetching.
func (m *Model) PredictFrom(seed []storage.PageID, n int) []storage.PageID {
	start := timeNow()
	if n > m.cfg.MaxGenerate {
		n = m.cfg.MaxGenerate
	}
	ctx := []int{bosID}
	emitted := map[int]bool{}
	for _, p := range seed {
		if id, ok := m.vocab[p]; ok {
			ctx = append(ctx, id)
			emitted[id] = true
		}
	}
	var outIDs []int
	for step := 0; step < n; step++ {
		window := ctx
		if len(window) > m.cfg.Context {
			window = window[len(window)-m.cfg.Context:]
		}
		m.rt.Arena.Release()
		logits := m.head.Forward(m.enc.Forward(window))
		best, bestV := -1, math.Inf(-1)
		for id := 1; id < len(logits.Data); id++ {
			if emitted[id] {
				continue
			}
			if logits.Data[id] > bestV {
				best, bestV = id, logits.Data[id]
			}
		}
		if best < 0 {
			break
		}
		emitted[best] = true
		outIDs = append(outIDs, best)
		ctx = append(ctx, best)
	}
	m.InferTime += timeSince(start)
	m.InferredTokens += len(outIDs)

	out := make([]storage.PageID, len(outIDs))
	for i, id := range outIDs {
		out[i] = m.pages[id]
	}
	sortPages(out)
	return out
}

func sortPages(pages []storage.PageID) {
	for i := 1; i < len(pages); i++ {
		for j := i; j > 0 && pages[j].Less(pages[j-1]); j-- {
			pages[j], pages[j-1] = pages[j-1], pages[j]
		}
	}
}

// PerTokenInferCost returns the average wall-clock cost per generated block.
func (m *Model) PerTokenInferCost() time.Duration {
	if m.InferredTokens == 0 {
		return 0
	}
	return m.InferTime / time.Duration(m.InferredTokens)
}
