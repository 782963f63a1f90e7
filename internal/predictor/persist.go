package predictor

import (
	"fmt"
	"time"

	"github.com/pythia-db/pythia/internal/model"
	"github.com/pythia-db/pythia/internal/serialize"
	"github.com/pythia-db/pythia/internal/storage"
)

// State is a trained predictor as plain data: the serializer configuration,
// the frozen vocabulary, the database objects each head covers, and the
// trunk (encoder weights once, then each head's labels and decoder weights).
type State struct {
	SerCfg      serialize.Config
	VocabTokens []string
	ModelObjs   [][]storage.ObjectID
	TrainTime   time.Duration
	Trunk       model.TrunkState
}

// State returns the predictor as data; see model.Trunk.State on aliasing.
func (p *Predictor) State() State {
	return State{
		SerCfg:      p.serCfg,
		VocabTokens: p.vocab.Tokens(),
		ModelObjs:   p.modelObjs,
		TrainTime:   p.TrainTime,
		Trunk:       p.trunk.State(),
	}
}

// FromState rebuilds a predictor that predicts exactly what the source of
// the state did. The state may come from a file: every inconsistency in it
// is an error, never a panic here or in a later Predict.
func FromState(s State) (*Predictor, error) {
	vocab, err := serialize.VocabFromTokens(s.VocabTokens)
	if err != nil {
		return nil, err
	}
	// Token IDs index the embedding table, so the two sizes are one number.
	if s.Trunk.VocabSize != vocab.Size() {
		return nil, fmt.Errorf("predictor: embedding for %d tokens but a vocabulary of %d", s.Trunk.VocabSize, vocab.Size())
	}
	if len(s.Trunk.Heads) != len(s.ModelObjs) {
		return nil, fmt.Errorf("predictor: %d heads but %d coverage entries", len(s.Trunk.Heads), len(s.ModelObjs))
	}
	trunk, err := model.TrunkFromState(s.Trunk)
	if err != nil {
		return nil, fmt.Errorf("predictor: %w", err)
	}
	p := &Predictor{vocab: vocab, serCfg: s.SerCfg, trunk: trunk, modelObjs: s.ModelObjs, TrainTime: s.TrainTime}
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
