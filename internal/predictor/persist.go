package predictor

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"github.com/pythia-db/pythia/internal/model"
	"github.com/pythia-db/pythia/internal/serialize"
	"github.com/pythia-db/pythia/internal/storage"
)

// persistedPredictor is the on-disk form of a trained predictor: the frozen
// vocabulary, the serializer configuration, the trunk (encoder weights once,
// then each head's labels and decoder weights), and the database objects
// each head covers.
type persistedPredictor struct {
	Version     int
	SerCfg      serialize.Config
	VocabTokens []string
	Trunk       []byte
	ModelObjs   [][]storage.ObjectID
	TrainTime   time.Duration
}

const persistVersion = 2

// Save writes the predictor to w. Loaded predictors produce byte-identical
// predictions for the same plans.
func (p *Predictor) Save(w io.Writer) error {
	var trunk bytes.Buffer
	if err := p.trunk.Save(&trunk); err != nil {
		return fmt.Errorf("predictor: saving trunk: %w", err)
	}
	return gob.NewEncoder(w).Encode(&persistedPredictor{
		Version:     persistVersion,
		SerCfg:      p.serCfg,
		VocabTokens: p.vocab.Tokens(),
		Trunk:       trunk.Bytes(),
		ModelObjs:   p.modelObjs,
		TrainTime:   p.TrainTime,
	})
}

// Load reads a predictor previously written by Save.
func Load(r io.Reader) (*Predictor, error) {
	var state persistedPredictor
	if err := gob.NewDecoder(r).Decode(&state); err != nil {
		return nil, fmt.Errorf("predictor: decoding: %w", err)
	}
	if state.Version != persistVersion {
		return nil, fmt.Errorf("predictor: unsupported persisted version %d", state.Version)
	}
	vocab, err := serialize.VocabFromTokens(state.VocabTokens)
	if err != nil {
		return nil, err
	}
	trunk, err := model.LoadTrunk(bytes.NewReader(state.Trunk))
	if err != nil {
		return nil, fmt.Errorf("predictor: %w", err)
	}
	if len(trunk.Heads()) != len(state.ModelObjs) {
		return nil, fmt.Errorf("predictor: %d heads but %d coverage entries",
			len(trunk.Heads()), len(state.ModelObjs))
	}
	p := &Predictor{
		vocab:     vocab,
		serCfg:    state.SerCfg,
		trunk:     trunk,
		modelObjs: state.ModelObjs,
		TrainTime: state.TrainTime,
	}
	p.index()
	return p, nil
}

// Update incrementally trains the trunk and every head jointly on new
// samples, with a fresh optimizer ("Pythia can be trained incrementally ...
// every new query run can be used as a new training data point", §5.3), and
// returns the final mean epoch loss summed over heads. Pages belonging to
// objects no head covers are ignored — extending coverage to new objects
// requires retraining, which the paper notes is cheap.
func (p *Predictor) Update(samples []TrainSample, epochs int) float64 {
	return p.trunk.TrainIncremental(p.encode(samples), epochs)
}
