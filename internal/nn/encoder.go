package nn

import (
	"math"
	"strconv"

	"github.com/pythia-db/pythia/internal/sim"
)

// FFN is Linear → ReLU → Linear: the transformer's position-wise
// feed-forward block (NewFFN) and Pythia's multilabel decoder head
// (NewDecoder). The ReLU is the first layer's epilogue, fused into its
// product, and Backward gates on its output: h > 0 exactly where the
// pre-activation is.
type FFN struct {
	L1, L2 *Linear

	h *Mat // the ReLU's output, cached for Backward
}

// NewFFN builds the encoder's block with the given hidden width.
func NewFFN(name string, d, hidden int, r *sim.Rand) *FFN {
	return &FFN{
		L1: NewLinear(name+".ffn1", d, hidden, r),
		L2: NewLinear(name+".ffn2", hidden, d, r),
	}
}

// NewDecoder builds a decoder head: one hidden layer of width hidden, then a
// logit per page of the database object (paper §5.1: hidden 800, output =
// number of blocks).
func NewDecoder(name string, in, hidden, outputs int, r *sim.Rand) *FFN {
	return &FFN{
		L1: NewLinear(name+".d1", in, hidden, r),
		L2: NewLinear(name+".d2", hidden, outputs, r),
	}
}

// Share is Encoder.Share for the block: f's parameters, its own caches, rt.
func (f *FFN) Share(rt Runtime) *FFN { return &FFN{L1: f.L1.share(rt), L2: f.L2.share(rt)} }

// Params returns both linear layers' parameters.
func (f *FFN) Params() []*Param {
	return append(f.L1.Params(), f.L2.Params()...)
}

// Forward applies the block.
func (f *FFN) Forward(x *Mat) *Mat {
	f.h = f.L1.forward(x, true)
	return f.L2.Forward(f.h)
}

// Backward returns dX. The ReLU gate masks dh's bits instead of branching
// on h: with about half the units off, the branch mispredicted about half
// the time. It leaves dh where h > 0 and +0 elsewhere, as the branch did.
func (f *FFN) Backward(dy *Mat) *Mat {
	dh := f.L2.Backward(dy)
	d := dh.Data[:len(f.h.Data)]
	for i, v := range f.h.Data {
		d[i] = math.Float64frombits(math.Float64bits(d[i]) & positive(v))
	}
	return f.L1.Backward(dh)
}

// positive is all ones where v > 0 and zero elsewhere, NaN included: v > 0
// exactly where its bits, read as an int64, lie in [1, the bits of +Inf].
func positive(v float64) uint64 {
	b := int64(math.Float64bits(v))
	return ^uint64((b - 1 | (0x7ff0000000000000 - b)) >> 63)
}

// EncoderLayer is one post-norm transformer encoder layer:
// x ← LN1(x + MHSA(x)); x ← LN2(x + FFN(x)).
type EncoderLayer struct {
	Attn *MHSA
	FF   *FFN
	LN1  *LayerNorm
	LN2  *LayerNorm

	rt Runtime
}

// NewEncoderLayer builds one layer.
func NewEncoderLayer(name string, d, heads, ffHidden int, r *sim.Rand) *EncoderLayer {
	return &EncoderLayer{
		Attn: NewMHSA(name+".attn", d, heads, r),
		FF:   NewFFN(name, d, ffHidden, r),
		LN1:  NewLayerNorm(name+".ln1", d),
		LN2:  NewLayerNorm(name+".ln2", d),
	}
}

// Params returns all the layer's parameters.
func (e *EncoderLayer) Params() []*Param {
	var out []*Param
	out = append(out, e.Attn.Params()...)
	out = append(out, e.FF.Params()...)
	out = append(out, e.LN1.Params()...)
	out = append(out, e.LN2.Params()...)
	return out
}

// Forward runs the layer over an n×D sequence.
func (e *EncoderLayer) Forward(x *Mat) *Mat { return e.forwardFrom(x, 0) }

// Backward returns dX.
func (e *EncoderLayer) Backward(dy *Mat) *Mat { return e.backwardFrom(dy, 0) }

// forwardFrom returns rows [from, n) of the layer's output over the n×D
// sequence x. Attention reads every row of x for its keys and values; the
// residual adds, both LayerNorms and the FFN are row-wise, so they run on
// the m = n−from rows alone and produce the bits the full pass would.
func (e *EncoderLayer) forwardFrom(x *Mat, from int) *Mat {
	h := e.LN1.Forward(e.rt.add(e.rt.rowsFrom(x, from), e.Attn.forwardFrom(x, from)))
	return e.LN2.Forward(e.rt.add(h, e.FF.Forward(h)))
}

// backwardFrom takes the m×D gradient of forwardFrom's rows and returns the
// n×D gradient of x — what backwardFrom(·, 0) returns for dy zero-padded to
// n rows. There, a zero row of dy stays a zero row through LN2, the FFN and
// LN1 and adds "+ (±0)" to weight-gradient sums that start at +0, so only
// the m rows are computed. The residual sum is then formed over all n rows
// with d1 padded with +0, as the full pass forms it, because +0 + −0 is +0
// and −0 alone is not. (The full pass's padding rows of d1 are
// inv·(0·gain − 0 − x̂·0): +0 for any positive LayerNorm gain, and the
// sign of a zero there is visible only where the attention gradient is
// itself exactly zero.)
func (e *EncoderLayer) backwardFrom(dy *Mat, from int) *Mat {
	d2 := e.LN2.Backward(dy)
	dh := e.rt.add(d2, e.FF.Backward(d2))
	d1 := e.LN1.Backward(dh)
	dAttn := e.Attn.backwardFrom(d1, from)
	return e.rt.add(e.rt.padRows(d1, from, dAttn.Rows), dAttn)
}

// Encoder is Pythia's query encoder: token embedding + sinusoidal positions,
// a stack of encoder layers, and the *last token's* embedding as the query
// representation ("we use ... finally the last token's embedding as the
// final query representation", paper §3.3). Only that row leaves the
// encoder, so the top layer computes only that row (forwardFrom(x, n−1)):
// its keys and values still cover the sequence, its queries, FFN and
// LayerNorms do not. Training and inference share the one path.
type Encoder struct {
	Emb    *Embedding
	Layers []*EncoderLayer
	D      int

	lastSeqLen int
}

// EncoderConfig sizes the encoder. The paper's configuration is Dim 100,
// Heads 10, Layers 2.
type EncoderConfig struct {
	Vocab    int
	Dim      int
	Heads    int
	Layers   int
	FFHidden int // defaults to 4×Dim
}

// NewEncoder builds the encoder. It needs at least one layer: the top layer
// is what reduces the sequence to its last token's row.
func NewEncoder(cfg EncoderConfig, r *sim.Rand) *Encoder {
	if cfg.Layers < 1 {
		panic("nn: encoder needs at least one layer")
	}
	if cfg.FFHidden <= 0 {
		cfg.FFHidden = 4 * cfg.Dim
	}
	enc := &Encoder{
		Emb: NewEmbedding("enc", cfg.Vocab, cfg.Dim, r),
		D:   cfg.Dim,
	}
	for i := 0; i < cfg.Layers; i++ {
		enc.Layers = append(enc.Layers, NewEncoderLayer("enc.l"+strconv.Itoa(i), cfg.Dim, cfg.Heads, cfg.FFHidden, r))
	}
	return enc
}

// Share returns an encoder over e's parameters — the same *Param pointers,
// so a weight update through either is seen by both — with its own backward
// caches, computing in rt; it is how an encoder is bound to an arena (one
// from NewEncoder computes on the heap). Encoders that share parameters but
// not a runtime may run forward passes concurrently while nothing writes
// the weights.
func (e *Encoder) Share(rt Runtime) *Encoder {
	s := &Encoder{Emb: &Embedding{V: e.Emb.V, D: e.Emb.D, Table: e.Emb.Table, rt: rt}, D: e.D}
	for _, l := range e.Layers {
		s.Layers = append(s.Layers, &EncoderLayer{
			Attn: l.Attn.share(rt),
			FF:   l.FF.Share(rt),
			LN1:  l.LN1.share(rt),
			LN2:  l.LN2.share(rt),
			rt:   rt,
		})
	}
	return s
}

// Params returns every parameter in the encoder.
func (e *Encoder) Params() []*Param {
	out := append([]*Param{}, e.Emb.Params()...)
	for _, l := range e.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Forward encodes a token-id sequence into a 1×D query representation.
func (e *Encoder) Forward(ids []int) *Mat {
	if len(ids) == 0 {
		panic("nn: encoding empty sequence")
	}
	e.lastSeqLen = len(ids)
	x := e.Emb.Forward(ids)
	AddPositional(x)
	top := len(e.Layers) - 1
	for _, l := range e.Layers[:top] {
		x = l.forwardFrom(x, 0)
	}
	return e.Layers[top].forwardFrom(x, len(ids)-1)
}

// Backward propagates the 1×D representation gradient back through the
// stack into the embedding table.
func (e *Encoder) Backward(dRep *Mat) {
	top := len(e.Layers) - 1
	dx := e.Layers[top].backwardFrom(dRep, e.lastSeqLen-1)
	for i := top - 1; i >= 0; i-- {
		dx = e.Layers[i].backwardFrom(dx, 0)
	}
	e.Emb.Backward(dx)
}
