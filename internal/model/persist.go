package model

import (
	"encoding/gob"
	"fmt"
	"io"

	"github.com/pythia-db/pythia/internal/nn"
	"github.com/pythia-db/pythia/internal/storage"
)

// persistedTrunk is the on-disk form of a trained trunk: the architecture
// configuration, the encoder's weights once, and per head its label space
// and decoder weights. Loading rebuilds the identical architecture and
// restores the weights, so a loaded trunk predicts exactly what the saved
// one did. Weights are lists in parameter order, not maps, so equal trunks
// encode to equal bytes.
type persistedTrunk struct {
	Version   int
	Cfg       Config
	VocabSize int
	Encoder   []tensor
	Heads     []persistedHead
}

type persistedHead struct {
	Labels  []storage.PageID
	Decoder []tensor
}

type tensor struct {
	Name string
	W    []float64
}

const persistVersion = 2

func tensors(params []*nn.Param) []tensor {
	out := make([]tensor, len(params))
	for i, p := range params {
		out[i] = tensor{p.Name, p.W.Data}
	}
	return out
}

func restore(params []*nn.Param, ts []tensor) error {
	snap := make(map[string][]float64, len(ts))
	for _, t := range ts {
		snap[t.Name] = t.W
	}
	return nn.Restore(params, snap)
}

// Save writes the trunk and all its heads to w (encoding/gob).
func (t *Trunk) Save(w io.Writer) error {
	state := persistedTrunk{
		Version:   persistVersion,
		Cfg:       t.cfg,
		VocabSize: t.enc.Emb.V,
		Encoder:   tensors(t.enc.Params()),
	}
	for _, h := range t.heads {
		state.Heads = append(state.Heads, persistedHead{h.Labels, tensors(h.dec.Params())})
	}
	return gob.NewEncoder(w).Encode(&state)
}

// LoadTrunk reads a trunk previously written by Save.
func LoadTrunk(r io.Reader) (*Trunk, error) {
	var state persistedTrunk
	if err := gob.NewDecoder(r).Decode(&state); err != nil {
		return nil, fmt.Errorf("model: decoding persisted trunk: %w", err)
	}
	if state.Version != persistVersion {
		return nil, fmt.Errorf("model: unsupported persisted version %d", state.Version)
	}
	labelSets := make([][]storage.PageID, len(state.Heads))
	for i, h := range state.Heads {
		if len(h.Labels) == 0 {
			return nil, fmt.Errorf("model: persisted head %d has empty label space", i)
		}
		labelSets[i] = h.Labels
	}
	t := NewTrunk(state.VocabSize, labelSets, state.Cfg)
	err := restore(t.enc.Params(), state.Encoder)
	for i, h := range t.heads {
		if err == nil {
			err = restore(h.dec.Params(), state.Heads[i].Decoder)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("model: restoring weights: %w", err)
	}
	return t, nil
}
