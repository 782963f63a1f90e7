package nn

import (
	"math"

	"github.com/pythia-db/pythia/internal/sim"
)

// BCEWithLogits computes the multilabel binary cross-entropy loss directly
// on logits (the paper's optimization objective) and its gradient. Each
// output unit is an independent page-presence classifier.
//
// The loss uses the numerically stable formulation
// max(x,0) − x·y + log(1 + exp(−|x|)), and supports a positive-class weight
// to counter the extreme sparsity of page labels (most pages of an object
// are *not* accessed by any one query).
type BCEWithLogits struct {
	// PosWeight multiplies the positive-class term; 1 means unweighted.
	PosWeight float64
	// Sum selects sum reduction instead of the default mean. With mean
	// reduction the per-output gradient shrinks as the label space grows,
	// so a model over 10× more pages learns 10× slower at the same
	// learning rate; sum reduction (with gradient clipping) keeps the
	// effective step size independent of label-space size.
	Sum bool
	// Scratch, when set, allocates the gradient matrix from the arena
	// instead of the heap (the training loop calls Loss once per step).
	Scratch *Arena
}

// Loss returns the loss over all outputs — their mean, or their sum under Sum
// — and its gradient with respect to the logits. targets must contain 0/1
// values of the same shape.
func (b BCEWithLogits) Loss(logits *Mat, targets []float64) (float64, *Mat) {
	if len(targets) != len(logits.Data) {
		panic("nn: BCE target length mismatch")
	}
	pw := b.PosWeight
	if pw <= 0 {
		pw = 1
	}
	n := float64(len(targets))
	if b.Sum {
		n = 1
	}
	grad := b.Scratch.Get(logits.Rows, logits.Cols)
	total := 0.0
	for i, x := range logits.Data {
		y := targets[i]
		// Stable BCE-with-logits, with pos_weight w applied to the y=1 term:
		// loss = (1 + (w-1)·y) · softplus(-x) + (1-y)·x   when rearranged per sign.
		var loss float64
		// e = exp(−|x|) serves the loss and the sigmoid: Sigmoid(x) is
		// 1/(1 + exp(−x)) for x ≥ 0 and exp(x)/(1 + exp(x)) below, the
		// same exponential either way.
		e := math.Exp(-math.Abs(x))
		softplusNegAbs := math.Log1p(e)
		maxX := math.Max(x, 0)
		// Unweighted stable form.
		base := maxX - x*y + softplusNegAbs
		if pw != 1 && y == 1 {
			// For positives the unweighted loss is softplus(-x) = max(x,0) - x + softplus(-|x|).
			loss = pw * base
		} else {
			loss = base
		}
		total += loss

		var p float64
		if x >= 0 {
			p = 1 / (1 + e)
		} else {
			p = e / (1 + e)
		}
		g := p - y
		if pw != 1 && y == 1 {
			g = pw * (p - 1)
		}
		grad.Data[i] = g / n
	}
	return total / n, grad
}

// Decoder is Pythia's feed-forward multilabel head: one hidden layer of
// width Hidden with ReLU, then a logit per page of the database object
// (paper §5.1: hidden 800, output = number of blocks).
type Decoder struct {
	L1, L2 *Linear
	relu   ReLU
}

// NewDecoder builds the head.
func NewDecoder(name string, in, hidden, outputs int, r *sim.Rand) *Decoder {
	return &Decoder{
		L1: NewLinear(name+".d1", in, hidden, r),
		L2: NewLinear(name+".d2", hidden, outputs, r),
	}
}

// Share is Encoder.Share for the head: d's parameters, its own caches, rt.
func (d *Decoder) Share(rt Runtime) *Decoder {
	return &Decoder{L1: d.L1.share(rt), L2: d.L2.share(rt), relu: ReLU{rt: rt}}
}

// Params returns the head's parameters.
func (d *Decoder) Params() []*Param { return append(d.L1.Params(), d.L2.Params()...) }

// Forward maps a 1×D query representation to 1×outputs logits.
func (d *Decoder) Forward(rep *Mat) *Mat {
	return d.L2.Forward(d.relu.Forward(d.L1.Forward(rep)))
}

// Backward returns the gradient with respect to the representation.
func (d *Decoder) Backward(dLogits *Mat) *Mat {
	return d.L1.Backward(d.relu.Backward(d.L2.Backward(dLogits)))
}
