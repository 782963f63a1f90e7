package nn

import (
	"strconv"
	"strings"
	"testing"

	"github.com/pythia-db/pythia/internal/sim"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	r := sim.NewRand(4)
	enc := NewEncoder(EncoderConfig{Vocab: 10, Dim: 8, Heads: 2, Layers: 1}, r)
	dec := NewDecoder("d", 8, 8, 4, r)
	params := append(enc.Params(), dec.Params()...)
	before := dec.Forward(enc.Forward([]int{1, 2, 3})).Clone()

	snap := Snapshot(params)

	// Perturb everything, then restore.
	for _, p := range params {
		for i := range p.W.Data {
			p.W.Data[i] += 1.5
		}
	}
	if err := Restore(params, snap); err != nil {
		t.Fatal(err)
	}
	after := dec.Forward(enc.Forward([]int{1, 2, 3}))
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("restore did not reproduce outputs exactly")
		}
	}
	// Snapshot must be a copy, not an alias.
	snap2 := Snapshot(params)
	params[0].W.Data[0] += 7
	for name := range snap2 {
		_ = name
	}
	if snap2[params[0].Name][0] == params[0].W.Data[0] {
		t.Fatal("snapshot aliases live weights")
	}
}

func TestRestoreErrors(t *testing.T) {
	r := sim.NewRand(4)
	l := NewLinear("x", 2, 2, r)
	if err := Restore(l.Params(), map[string][]float64{}); err == nil {
		t.Fatal("missing parameter did not error")
	}
	if err := Restore(l.Params(), map[string][]float64{
		"x.w": {1}, "x.b": {0, 0},
	}); err == nil {
		t.Fatal("size mismatch did not error")
	}
}

func TestSnapshotDuplicateNamePanics(t *testing.T) {
	a := NewParam("same", 1, 1)
	b := NewParam("same", 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	Snapshot([]*Param{a, b})
}

// TestRestoreResetsOptimizerState: Restore clears the gradients, and a new
// optimizer starts from zero moments whatever an earlier one left, so the
// layer trained and restored in place takes the same next step as a copy
// restored from its snapshot.
func TestRestoreResetsOptimizerState(t *testing.T) {
	r := sim.NewRand(4)
	l := NewLinear("x", 2, 2, r)
	opt := NewAdam(0.1, l.Params())
	l.Weight.G.Data[0] = 1
	opt.Step(1)
	snap := Snapshot(l.Params())
	if err := Restore(l.Params(), snap); err != nil {
		t.Fatal(err)
	}
	if l.Weight.G.Norm() != 0 {
		t.Fatal("gradient survived restore")
	}
	twin := NewLinear("x", 2, 2, sim.NewRand(5))
	if err := Restore(twin.Params(), snap); err != nil {
		t.Fatal(err)
	}
	for _, x := range []*Linear{l, twin} {
		x.Weight.G.Data[1] = 1
		NewAdam(0.1, x.Params()).Step(1)
	}
	bitwiseEq(t, "weight after a fresh optimizer's step", l.Weight.W, twin.Weight.W)
}

// TestSnapshotTwelveLayerEncoder: layer i used to be named with
// rune('0'+i), which is ':' for layer 10 and ';' for layer 11. A 12-layer
// encoder's snapshot must key its layers "l0" … "l11" and round-trip.
func TestSnapshotTwelveLayerEncoder(t *testing.T) {
	cfg := EncoderConfig{Vocab: 8, Dim: 4, Heads: 2, Layers: 12, FFHidden: 4}
	enc := NewEncoder(cfg, sim.NewRand(1))
	snap := Snapshot(enc.Params())
	layers := map[string]bool{}
	for name := range snap {
		if seg := strings.Split(name, "."); len(seg) > 2 {
			layers[seg[1]] = true
		}
	}
	for i := 0; i < 12; i++ {
		if name := "l" + strconv.Itoa(i); !layers[name] {
			t.Errorf("no parameter of layer %d is keyed %q", i, name)
		}
	}
	if len(layers) != 12 {
		t.Fatalf("%d distinct layer prefixes, want 12: %v", len(layers), layers)
	}

	ids := []int{1, 5, 2}
	want := enc.Forward(ids).Clone()
	other := NewEncoder(cfg, sim.NewRand(2))
	if err := Restore(other.Params(), snap); err != nil {
		t.Fatal(err)
	}
	bitwiseEq(t, "restored 12-layer encoder", other.Forward(ids), want)
}
