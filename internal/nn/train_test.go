package nn

import (
	"math"
	"testing"

	"github.com/pythia-db/pythia/internal/sim"
)

// TestEndToEndOverfit trains the full Pythia architecture (encoder +
// decoder + BCE-with-logits + Adam) on a tiny synthetic mapping from token
// sequences to label sets and checks the loss collapses and the labels are
// recovered — the smoke test that the whole stack learns.
func TestEndToEndOverfit(t *testing.T) {
	r := sim.NewRand(42)
	const (
		vocab   = 20
		dim     = 16
		heads   = 4
		outputs = 12
	)
	enc := NewEncoder(EncoderConfig{Vocab: vocab, Dim: dim, Heads: heads, Layers: 2, FFHidden: 32}, r)
	dec := NewDecoder("dec", dim, 24, outputs, r)
	params := append(enc.Params(), dec.Params()...)
	opt := NewAdam(0.01, params)
	opt.Clip = 5

	// Four distinct "queries", each mapping to a distinct page set.
	seqs := [][]int{
		{2, 5, 7, 3},
		{2, 9, 7, 4},
		{11, 5, 13},
		{11, 9, 13, 8, 6},
	}
	labels := [][]float64{
		{1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0},
		{0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1},
		{0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0},
	}
	bce := BCEWithLogits{}

	var first, last float64
	for epoch := 0; epoch < 200; epoch++ {
		total := 0.0
		for i, seq := range seqs {
			opt.ZeroGrad()
			rep := enc.Forward(seq)
			logits := dec.Forward(rep)
			loss, dLogits := bce.Loss(logits, labels[i])
			total += loss
			dRep := dec.Backward(dLogits)
			enc.Backward(dRep)
			opt.Step(1)
		}
		if epoch == 0 {
			first = total
		}
		last = total
	}
	if last >= first/10 {
		t.Fatalf("loss did not collapse: first=%.4f last=%.4f", first, last)
	}
	// Thresholded predictions must recover the training labels exactly.
	for i, seq := range seqs {
		logits := dec.Forward(enc.Forward(seq))
		for j, x := range logits.Data {
			pred := 0.0
			if Sigmoid(x) >= 0.5 {
				pred = 1
			}
			if pred != labels[i][j] {
				t.Fatalf("seq %d label %d not recovered (p=%.3f want %v)", i, j, Sigmoid(x), labels[i][j])
			}
		}
	}
}

func TestAdamStepReducesLossOnQuadratic(t *testing.T) {
	p := NewParam("x", 1, 3)
	p.W.Data = []float64{5, -3, 2}
	opt := NewAdam(0.1, []*Param{p})
	lossOf := func() float64 {
		s := 0.0
		for _, v := range p.W.Data {
			s += v * v
		}
		return s
	}
	start := lossOf()
	for i := 0; i < 300; i++ {
		opt.ZeroGrad()
		for j, v := range p.W.Data {
			p.G.Data[j] = 2 * v
		}
		opt.Step(1)
	}
	if end := lossOf(); end > start/100 {
		t.Fatalf("Adam failed to minimize quadratic: %f -> %f", start, end)
	}
}

func TestAdamClip(t *testing.T) {
	p := NewParam("x", 1, 2)
	opt := NewAdam(0.1, []*Param{p})
	opt.Clip = 1
	p.G.Data = []float64{300, 400} // norm 500
	if n := opt.GradNorm(); n != 500 {
		t.Fatalf("GradNorm = %f", n)
	}
	opt.Step(1)
	// With clipping, both moments were fed gradients scaled by 1/500; the
	// step size is bounded by LR regardless, so just verify no explosion.
	for _, v := range p.W.Data {
		if v > 0 || v < -0.2 {
			t.Fatalf("clipped step moved weight to %f", v)
		}
	}
}

func TestParamCount(t *testing.T) {
	r := sim.NewRand(0)
	l := NewLinear("t", 3, 4, r)
	if got := ParamCount(l.Params()); got != 3*4+4 {
		t.Fatalf("ParamCount = %d", got)
	}
}

func TestBCELossValues(t *testing.T) {
	bce := BCEWithLogits{}
	logits := &Mat{Rows: 1, Cols: 2, Data: []float64{0, 0}}
	loss, _ := bce.Loss(logits, []float64{1, 0})
	// −log(0.5) for each output.
	if !almostEq(loss, 0.6931471805599453, 1e-12) {
		t.Fatalf("BCE at logit 0 = %f", loss)
	}
	// Confident correct predictions → tiny loss.
	logits.Data = []float64{20, -20}
	loss, _ = bce.Loss(logits, []float64{1, 0})
	if loss > 1e-8 {
		t.Fatalf("confident-correct loss = %g", loss)
	}
	// Confident wrong predictions → large loss, no NaN/Inf.
	logits.Data = []float64{-40, 40}
	loss, grad := bce.Loss(logits, []float64{1, 0})
	if loss < 10 || loss != loss {
		t.Fatalf("confident-wrong loss = %f", loss)
	}
	for _, g := range grad.Data {
		if g != g {
			t.Fatal("NaN gradient")
		}
	}
}

func TestPosWeightScalesPositives(t *testing.T) {
	logits := &Mat{Rows: 1, Cols: 1, Data: []float64{0}}
	l1, g1 := BCEWithLogits{PosWeight: 1}.Loss(logits, []float64{1})
	l3, g3 := BCEWithLogits{PosWeight: 3}.Loss(logits, []float64{1})
	if !almostEq(l3, 3*l1, 1e-12) {
		t.Fatalf("pos-weighted loss %f != 3×%f", l3, l1)
	}
	if !almostEq(g3.Data[0], 3*g1.Data[0], 1e-12) {
		t.Fatal("pos-weighted gradient not scaled")
	}
	// Negatives unaffected.
	ln1, _ := BCEWithLogits{PosWeight: 1}.Loss(logits, []float64{0})
	ln3, _ := BCEWithLogits{PosWeight: 3}.Loss(logits, []float64{0})
	if ln1 != ln3 {
		t.Fatal("pos weight leaked into negatives")
	}
}

// TestBCEGradientMatchesSigmoid holds the gradient, whose sigmoid reuses
// the loss's exp(−|x|), to p − y with p = Sigmoid(x) bit for bit: both signs
// of small and large logits (|x| > 40, where exp(−|x|) is tiny, up to where
// it is 0), ±0 and ±Inf, against both labels, weighted and not, summed and
// averaged; and Grad to Loss's gradient.
func TestBCEGradientMatchesSigmoid(t *testing.T) {
	r := sim.NewRand(71)
	var xs []float64
	for _, v := range []float64{0, 1e-300, 0.3, 1, 2.5, 17, 40, 41, 50, 300, 745, 800, 1e300, math.Inf(1)} {
		xs = append(xs, v, -v)
	}
	for i := 0; i < 200; i++ {
		xs = append(xs, 60*r.NormFloat64())
	}
	logits := &Mat{Rows: 1, Cols: 2 * len(xs)}
	targets := make([]float64, 2*len(xs))
	for i, x := range xs {
		logits.Data = append(logits.Data, x, x)
		targets[2*i] = 1
	}
	for _, bce := range []BCEWithLogits{{}, {PosWeight: 5}, {PosWeight: 5, Sum: true}} {
		_, grad := bce.Loss(logits, targets)
		n := float64(len(targets))
		if bce.Sum {
			n = 1
		}
		for i, x := range logits.Data {
			p, y := Sigmoid(x), targets[i]
			want := p - y
			if bce.PosWeight > 1 && y == 1 {
				want = bce.PosWeight * (p - 1)
			}
			want /= n
			if got := grad.Data[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v: x=%v y=%v: gradient %v, Sigmoid formula gives %v", bce, x, y, got, want)
			}
		}
		// Grad, the gradient without the loss, is the same bits.
		for i, g := range bce.Grad(logits, targets).Data {
			if math.Float64bits(g) != math.Float64bits(grad.Data[i]) {
				t.Fatalf("%+v: x=%v y=%v: Grad %v, Loss's gradient %v", bce, logits.Data[i], targets[i], g, grad.Data[i])
			}
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	build := func() float64 {
		r := sim.NewRand(9)
		enc := NewEncoder(EncoderConfig{Vocab: 10, Dim: 8, Heads: 2, Layers: 1}, r)
		dec := NewDecoder("d", 8, 8, 4, r)
		opt := NewAdam(0.01, append(enc.Params(), dec.Params()...))
		bce := BCEWithLogits{}
		var loss float64
		for i := 0; i < 20; i++ {
			opt.ZeroGrad()
			logits := dec.Forward(enc.Forward([]int{1, 2, 3}))
			var d *Mat
			loss, d = bce.Loss(logits, []float64{1, 0, 1, 0})
			enc.Backward(dec.Backward(d))
			opt.Step(1)
		}
		return loss
	}
	if build() != build() {
		t.Fatal("training is not deterministic")
	}
}
