package nn

import "math"

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
	return b.eval(logits, targets, true)
}

// Grad returns Loss's gradient, bit for bit, without the loss: the training
// epochs whose loss nothing reads skip its logarithm.
func (b BCEWithLogits) Grad(logits *Mat, targets []float64) *Mat {
	_, grad := b.eval(logits, targets, false)
	return grad
}

// eval is Loss, summing the loss only when withLoss is set.
func (b BCEWithLogits) eval(logits *Mat, targets []float64, withLoss bool) (float64, *Mat) {
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
		// e = exp(−|x|) serves the loss and the sigmoid: Sigmoid(x) is
		// 1/(1 + exp(−x)) for x ≥ 0 and exp(x)/(1 + exp(x)) below, the
		// same exponential either way.
		e := math.Exp(-math.Abs(x))
		if withLoss {
			// Stable BCE-with-logits, with pos_weight w applied to the y=1
			// term: max(x,0) − x·y + log(1 + exp(−|x|)), times w for a
			// positive.
			loss := math.Max(x, 0) - x*y + math.Log1p(e)
			if pw != 1 && y == 1 {
				loss = pw * loss
			}
			total += loss
		}

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
