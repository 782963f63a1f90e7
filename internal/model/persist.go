package model

import (
	"fmt"
	"math"

	"github.com/pythia-db/pythia/internal/nn"
	"github.com/pythia-db/pythia/internal/storage"
)

// TrunkState is a trained trunk as plain data: the architecture, the
// encoder's weights once, and per head its label space and decoder weights.
// Weights are lists in parameter order, not maps, so equal trunks encode to
// equal bytes. How a state reaches a file is internal/pythia's business.
type TrunkState struct {
	Cfg       Config
	VocabSize int
	Encoder   []tensor
	Heads     []headState
}

type headState struct {
	Labels  []storage.PageID
	Decoder []tensor
}

type tensor struct {
	Name string
	W    []float64
}

func tensors(params []*nn.Param) []tensor {
	out := make([]tensor, len(params))
	for i, p := range params {
		out[i] = tensor{p.Name, p.W.Data}
	}
	return out
}

// State returns the trunk and all its heads as data. The weight slices are
// the live ones, not copies: encode the state before training further.
func (t *Trunk) State() TrunkState {
	s := TrunkState{Cfg: t.cfg, VocabSize: t.enc.Emb.V, Encoder: tensors(t.enc.Params())}
	for _, h := range t.heads {
		s.Heads = append(s.Heads, headState{h.Labels, tensors(h.dec.Params())})
	}
	return s
}

// TrunkFromState rebuilds the trunk a state was taken from; it predicts
// exactly what the source did. The state may come from a file, so before
// anything is built the weights its architecture implies must be the weights
// it carries — every allocation is then bounded by what the caller already
// holds — and afterwards each tensor is matched to its parameter by name and
// length.
func TrunkFromState(s TrunkState) (*Trunk, error) {
	c := s.Cfg
	if c.Dim <= 0 || c.Heads <= 0 || c.Layers <= 0 || c.DecoderHidden <= 0 || s.VocabSize <= 0 || c.Dim%c.Heads != 0 {
		return nil, fmt.Errorf("model: inconsistent architecture: vocabulary %d, dim %d, %d heads, %d layers, decoder %d",
			s.VocabSize, c.Dim, c.Heads, c.Layers, c.DecoderHidden)
	}
	// Save writes the trained config, so a cut, rate or weight no training
	// run could have used is a damaged state: a NaN or >1 threshold never
	// predicts, a NaN rate or infinite weight ruins the first Update.
	if !(c.Threshold > 0 && c.Threshold <= 1) ||
		!(c.LR > 0 && c.LR <= math.MaxFloat64) ||
		!(c.PosWeight > 0 && c.PosWeight <= math.MaxFloat64) {
		return nil, fmt.Errorf("model: invalid training config: threshold %v, learning rate %v, positive weight %v",
			c.Threshold, c.LR, c.PosWeight)
	}
	// What NewTrunk allocates, in float64 because a forged dimension cannot
	// overflow it. A layer is four d×d projections, the d×ff and ff×d pair,
	// their six biases, and two LayerNorms' gain and bias.
	d, ff, dh := float64(c.Dim), float64(c.FFHidden), float64(c.DecoderHidden)
	if ff <= 0 {
		ff = 4 * d
	}
	implied := float64(s.VocabSize)*d + float64(c.Layers)*(4*d*d+2*d*ff+ff+9*d)
	carried := 0
	for _, t := range s.Encoder {
		carried += len(t.W)
	}
	labelSets := make([][]storage.PageID, len(s.Heads))
	for i, h := range s.Heads {
		if len(h.Labels) == 0 {
			return nil, fmt.Errorf("model: head %d has an empty label space", i)
		}
		labelSets[i] = h.Labels
		l := float64(len(h.Labels))
		implied += d*dh + dh + dh*l + l
		for _, t := range h.Decoder {
			carried += len(t.W)
		}
	}
	if implied != float64(carried) {
		return nil, fmt.Errorf("model: architecture implies %.0f weights, state carries %d", implied, carried)
	}
	t := NewTrunk(s.VocabSize, labelSets, c)
	err := restore(t.enc.Params(), s.Encoder)
	for i, h := range t.heads {
		if err == nil {
			err = restore(h.dec.Params(), s.Heads[i].Decoder)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("model: restoring weights: %w", err)
	}
	return t, nil
}

func restore(params []*nn.Param, ts []tensor) error {
	snap := make(map[string][]float64, len(ts))
	for _, t := range ts {
		snap[t.Name] = t.W
	}
	return nn.Restore(params, snap)
}
