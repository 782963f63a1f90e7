package nn

import "fmt"

// Snapshot captures every parameter's weights by name. Names are unique
// within one model (layer constructors namespace them), which is what makes
// snapshot/restore safe across identically configured models.
func Snapshot(params []*Param) map[string][]float64 {
	out := make(map[string][]float64, len(params))
	for _, p := range params {
		if _, dup := out[p.Name]; dup {
			panic("nn: duplicate parameter name " + p.Name)
		}
		w := make([]float64, len(p.W.Data))
		copy(w, p.W.Data)
		out[p.Name] = w
	}
	return out
}

// Restore loads a snapshot into parameters of the same architecture. Every
// parameter must be present with matching size; gradients are cleared.
func Restore(params []*Param, snap map[string][]float64) error {
	for _, p := range params {
		w, ok := snap[p.Name]
		if !ok {
			return fmt.Errorf("nn: snapshot missing parameter %s", p.Name)
		}
		if len(w) != len(p.W.Data) {
			return fmt.Errorf("nn: parameter %s has %d weights, snapshot has %d",
				p.Name, len(p.W.Data), len(w))
		}
		copy(p.W.Data, w)
		p.G.Zero()
	}
	return nil
}
