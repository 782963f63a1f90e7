package model

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/pythia-db/pythia/internal/nn"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
)

// refModel is the model this package had before the encoder was shared,
// kept as the reference: one private encoder and one decoder drawn from one
// seeded stream, trained end to end by the loop refModel.train spells out.
type refModel struct {
	cfg      Config
	enc      *nn.Encoder
	dec      *nn.FFN
	labelIdx map[storage.PageID]int
}

func newRefModel(vocab int, labels []storage.PageID, cfg Config) *refModel {
	cfg = cfg.withDefaults()
	r := sim.NewRand(cfg.Seed)
	m := &refModel{cfg: cfg, labelIdx: map[storage.PageID]int{}}
	m.enc = nn.NewEncoder(nn.EncoderConfig{
		Vocab: vocab, Dim: cfg.Dim, Heads: cfg.Heads, Layers: cfg.Layers, FFHidden: cfg.FFHidden,
	}, r)
	m.dec = nn.NewDecoder("dec", cfg.Dim, cfg.DecoderHidden, len(labels), r)
	for i := range m.dec.L2.Bias.W.Data {
		m.dec.L2.Bias.W.Data[i] = -2
	}
	for i, l := range labels {
		m.labelIdx[l] = i
	}
	return m
}

func (m *refModel) params() []*nn.Param { return append(m.enc.Params(), m.dec.Params()...) }

// backprop is one sample forward and back: the body of the old Train loop
// between ZeroGrad and Step.
func (m *refModel) backprop(s Sample) float64 {
	targets := make([]float64, len(m.labelIdx))
	for _, p := range s.Pages {
		if j, ok := m.labelIdx[p]; ok {
			targets[j] = 1
		}
	}
	bce := nn.BCEWithLogits{PosWeight: m.cfg.PosWeight, Sum: true}
	loss, dLogits := bce.Loss(m.dec.Forward(m.enc.Forward(s.TokenIDs)), targets)
	m.enc.Backward(m.dec.Backward(dLogits))
	return loss
}

// train steps once per trainBatch consecutive samples of each shuffle, on
// their summed gradients, zeroed before each group.
func (m *refModel) train(samples []Sample) float64 {
	opt := nn.NewAdam(m.cfg.LR*batchLRScale, m.params())
	opt.Clip = 5
	r := sim.NewRand(m.cfg.Seed ^ 0x5eed)
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	var epochLoss float64
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss = 0
		for lo := 0; lo < len(order); lo += trainBatch {
			opt.ZeroGrad()
			hi := min(lo+trainBatch, len(order))
			for _, i := range order[lo:hi] {
				epochLoss += m.backprop(samples[i])
			}
			opt.Step(hi - lo)
		}
		epochLoss /= float64(len(samples))
	}
	return epochLoss
}

// seqTrain is Trunk.train as it was before a group's samples ran on
// several views, kept as the reference: one view with no gradient log, so
// every Backward adds into Param.G at once, the samples of a group one after
// another, one Step per group.
func seqTrain(t *Trunk, samples []Sample) float64 {
	rt := nn.Runtime{Arena: nn.NewArena()}
	enc := t.enc.Share(rt)
	var decs []*nn.FFN
	for _, h := range t.heads {
		decs = append(decs, h.dec.Share(rt))
	}
	opt := nn.NewAdam(t.cfg.LR*batchLRScale, t.params(t.heads))
	opt.Clip = 5
	r := sim.NewRand(t.cfg.Seed ^ 0x5eed)
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	var epochLoss float64
	opt.ZeroGrad()
	for epoch := 0; epoch < t.cfg.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss = 0
		for lo := 0; lo < len(order); lo += trainBatch {
			group := order[lo:min(lo+trainBatch, len(order))]
			for _, i := range group {
				rt.Arena.Release()
				s := samples[i]
				bce := nn.BCEWithLogits{PosWeight: t.cfg.PosWeight, Sum: true, Scratch: rt.Arena}
				rep := enc.Forward(s.TokenIDs)
				var total float64
				var dRep *nn.Mat
				for k, h := range t.heads {
					loss, dLogits := bce.Loss(decs[k].Forward(rep), h.targets(make([]float64, len(h.Labels)), s.Pages))
					total += loss
					if d := decs[k].Backward(dLogits); dRep == nil {
						dRep = d
					} else {
						nn.AddInPlace(dRep, d)
					}
				}
				enc.Backward(dRep)
				epochLoss += total
			}
			opt.Step(len(group))
		}
		epochLoss /= float64(len(samples))
	}
	return epochLoss
}

func (m *refModel) scores(ids []int) []float64 {
	logits := m.dec.Forward(m.enc.Forward(ids))
	out := make([]float64, len(logits.Data))
	for i, x := range logits.Data {
		out[i] = nn.Sigmoid(x)
	}
	return out
}

// seededShape draws a model shape, H label spaces over H objects and a
// sample set from one seed.
func seededShape(seed uint64, heads int) (vocab int, cfg Config, labelSets [][]storage.PageID, samples []Sample) {
	r := sim.NewRand(seed)
	cfg = DefaultConfig()
	cfg.Heads = 1 + r.Intn(3)
	cfg.Dim = cfg.Heads * (2 + r.Intn(4))
	cfg.Layers = 1 + r.Intn(2)
	cfg.DecoderHidden = 4 + r.Intn(12)
	cfg.Epochs = 3
	cfg.LR = 5e-3
	cfg.Seed = seed
	vocab = 6 + r.Intn(10)
	for h := 0; h < heads; h++ {
		var labels []storage.PageID
		for p := 0; p < 3+r.Intn(12); p++ {
			labels = append(labels, pg(uint32(h+1), uint32(p)))
		}
		labelSets = append(labelSets, labels)
	}
	for i := 0; i < 5+r.Intn(5); i++ {
		s := Sample{TokenIDs: make([]int, 2+r.Intn(7))}
		for j := range s.TokenIDs {
			s.TokenIDs[j] = r.Intn(vocab)
		}
		for _, labels := range labelSets {
			for _, l := range labels {
				if r.Intn(3) == 0 {
					s.Pages = append(s.Pages, l)
				}
			}
		}
		samples = append(samples, s)
	}
	return vocab, cfg, labelSets, samples
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (bitwise)", what, i, got[i], want[i])
		}
	}
}

// TestOneHeadMatchesUnsharedModel: a trunk with exactly one head is the
// unshared model bit for bit — loss, every weight, every score. Fails if
// the optimizer is handed the head's parameters before the encoder's (the
// global clip norm sums in another order), the loss is mean-reduced, or a
// group's last partial step is dropped or taken at the full group's size
// (the shapes hold 5–9 samples, so most end on a partial group).
func TestOneHeadMatchesUnsharedModel(t *testing.T) {
	partial := false
	for seed := uint64(1); seed <= 12; seed++ {
		vocab, cfg, labelSets, samples := seededShape(seed, 1)
		partial = partial || len(samples)%trainBatch != 0
		ref := newRefModel(vocab, labelSets[0], cfg)
		m := New(vocab, labelSets[0], cfg)
		wantLoss, gotLoss := ref.train(samples), m.Train(samples)
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("seed %d: loss %v, want %v (bitwise)", seed, gotLoss, wantLoss)
		}
		got, want := m.trunk.params(m.trunk.heads), ref.params()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d params, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name {
				t.Fatalf("seed %d: param %d is %s, want %s", seed, i, got[i].Name, want[i].Name)
			}
			sameBits(t, want[i].Name, got[i].W.Data, want[i].W.Data)
		}
		for _, s := range samples {
			sameBits(t, "scores", m.Scores(s.TokenIDs), ref.scores(s.TokenIDs))
		}
	}
	if !partial {
		t.Fatal("no seeded shape ends on a partial group")
	}
}

// TestJointGradientIsSumOfHeadGradients: after one joint backprop over
// three heads (the body of train's loop, its gradient log applied and read
// before Step consumes the gradients), the encoder's gradients are the sum of the three gradients the
// unshared model gives when each head is back-propagated alone through its
// own copy of the encoder, and each decoder's gradients are exactly that
// head's own. Fails if backprop drops a head's dRep or averages the dReps
// instead of summing them (the averaged variant lost 0.13 F1 on t19).
func TestJointGradientIsSumOfHeadGradients(t *testing.T) {
	const H = 3
	for seed := uint64(1); seed <= 8; seed++ {
		vocab, cfg, labelSets, samples := seededShape(seed, H)
		joint := NewTrunk(vocab, labelSets, cfg)
		v := joint.borrow()
		joint.backprop(v, joint.heads, samples[0], true)
		var scratch []float64
		for i := 0; i < v.log.Len(); i++ {
			first, _ := v.log.Params(i)
			nn.ApplyRows([]nn.GradEntry{v.log.Entry(i)}, 0, first.W.Rows, &scratch)
		}
		joint.giveBack(v)

		encParams := len(joint.enc.Params())
		sum := make([][]float64, encParams)
		for k := 0; k < H; k++ {
			// An identically seeded trunk has the joint one's initial weights;
			// the reference runs on its encoder and its k-th decoder.
			twin := NewTrunk(vocab, labelSets, cfg)
			ref := &refModel{cfg: twin.cfg, enc: twin.enc, dec: twin.heads[k].dec, labelIdx: twin.heads[k].labelIdx}
			ref.backprop(samples[0])
			for i, p := range ref.enc.Params() {
				if sum[i] == nil {
					sum[i] = make([]float64, len(p.G.Data))
				}
				for j, g := range p.G.Data {
					sum[i][j] += g
				}
			}
			for i, p := range ref.dec.Params() {
				sameBits(t, p.Name, joint.heads[k].dec.Params()[i].G.Data, p.G.Data)
			}
		}
		// Relative to the largest encoder gradient: a key bias's gradient is
		// rounding noise around an exact zero (softmax rows sum to one), so
		// a per-parameter scale would compare noise with noise.
		var scale float64
		for _, w := range sum {
			for _, g := range w {
				scale = math.Max(scale, math.Abs(g))
			}
		}
		if scale == 0 {
			t.Fatalf("seed %d: no encoder gradient; the comparison would be vacuous", seed)
		}
		for i, p := range joint.enc.Params() {
			for j, g := range p.G.Data {
				if math.Abs(g-sum[i][j]) > 1e-12*scale {
					t.Fatalf("seed %d: %s[%d] joint gradient %v, sum of per-head gradients %v", seed, p.Name, j, g, sum[i][j])
				}
			}
		}
	}
}

// TestGroupTrainMatchesSequential: training a group's samples on up to four
// views at once, each logging its gradient sums for the merge, gives the
// loss and every weight that seqTrain gives, bit for bit, at GOMAXPROCS 1, 2
// and 4, for one and three heads and sample counts that end on a short
// group of one, two or three, with the merge and Adam split into tasks of
// the default size and, with two or four workers, into tasks of four
// elements or four rows; and with one 64-token sample among the 2–8-token
// others, so that its view lags the group's and merges wait on it while
// other workers merge. Fails if the merge adds a parameter's samples out of
// group order or reads an entry before its sample logged it, if two tasks
// write one gradient element, or if the norm chain reads a parameter before
// its last merge task is done. Before
// that it checks what the merge's split rests on: on a view that ran several
// samples, log position p of every sample's segment names the same
// parameter, and no two positions name one.
func TestGroupTrainMatchesSequential(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, heads := range []int{1, 3} {
			vocab, cfg, labelSets, samples := seededShape(seed, heads)

			tr := NewTrunk(vocab, labelSets, cfg)
			v := tr.borrow()
			for _, s := range samples[:3] {
				tr.backprop(v, tr.heads, s, true)
			}
			per := v.log.Len() / 3
			if per == 0 || v.log.Len() != 3*per {
				t.Fatalf("seed %d: %d log entries for three samples", seed, v.log.Len())
			}
			seen := map[*nn.Param]int{}
			for p := 0; p < per; p++ {
				param, _ := v.log.Params(p)
				if q, dup := seen[param]; dup {
					t.Fatalf("seed %d: log positions %d and %d both name %s", seed, q, p, param.Name)
				}
				seen[param] = p
				for k := 1; k < 3; k++ {
					if got, _ := v.log.Params(k*per + p); got != param {
						t.Fatalf("seed %d: sample %d logs %s at position %d, sample 0 %s", seed, k, got.Name, p, param.Name)
					}
				}
			}

			// The shapes hold 5–9 samples; repeated, they give every count.
			samples = append(samples, samples...)
			long := slices.Clone(samples[:7])
			r := sim.NewRand(seed)
			long[2].TokenIDs = make([]int, 64)
			for i := range long[2].TokenIDs {
				long[2].TokenIDs[i] = r.Intn(vocab)
			}
			for _, set := range [][]Sample{samples[:5], samples[:6], samples[:7], long} {
				n := len(set)
				ref := NewTrunk(vocab, labelSets, cfg)
				wantLoss := seqTrain(ref, set)
				for _, procs := range []int{1, 2, 4} {
					for _, elems := range []int{taskElems, 4} {
						if elems != taskElems && procs == 1 {
							continue // one worker runs the tasks in list order
						}
						got := NewTrunk(vocab, labelSets, cfg)
						prev, prevElems := runtime.GOMAXPROCS(procs), taskElems
						taskElems = elems
						gotLoss := got.Train(set)
						runtime.GOMAXPROCS(prev)
						taskElems = prevElems
						if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
							t.Fatalf("seed %d, %d heads, %d samples (%d tokens in the third), GOMAXPROCS %d, %d-element tasks: loss %v, want %v (bitwise)", seed, heads, n, len(set[2].TokenIDs), procs, elems, gotLoss, wantLoss)
						}
						want := ref.params(ref.heads)
						for i, p := range got.params(got.heads) {
							sameBits(t, p.Name, p.W.Data, want[i].W.Data)
						}
					}
				}
			}
		}
	}
}
