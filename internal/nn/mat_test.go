package nn

import (
	"math"
	"testing"

	"github.com/pythia-db/pythia/internal/sim"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatMul(t *testing.T) {
	a := &Mat{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	b := &Mat{Rows: 3, Cols: 2, Data: []float64{7, 8, 9, 10, 11, 12}}
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulTransposes(t *testing.T) {
	r := sim.NewRand(1)
	a := randMat(r, 4, 3)
	b := randMat(r, 4, 5)
	// aᵀ @ b via explicit transpose must equal MatMulT1.
	at := NewMat(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	got := MatMulT1(a, b)
	want := MatMul(at, b)
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-12) {
			t.Fatal("MatMulT1 disagrees with explicit transpose")
		}
	}
	c := randMat(r, 6, 5)
	bt := NewMat(5, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	got2 := MatMulT2(c, b)
	want2 := MatMul(c, bt)
	for i := range want2.Data {
		if !almostEq(got2.Data[i], want2.Data[i], 1e-12) {
			t.Fatal("MatMulT2 disagrees with explicit transpose")
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	MatMul(NewMat(2, 3), NewMat(2, 3))
}

func TestSoftmaxRows(t *testing.T) {
	m := &Mat{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 1000, 1000, 1000}}
	m.SoftmaxRows(1)
	for i := 0; i < 2; i++ {
		sum := 0.0
		for _, v := range m.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", m.Row(i))
			}
			sum += v
		}
		if !almostEq(sum, 1, 1e-12) {
			t.Fatalf("softmax row sums to %f", sum)
		}
	}
	if !(m.At(0, 2) > m.At(0, 1) && m.At(0, 1) > m.At(0, 0)) {
		t.Fatal("softmax not monotone")
	}
	// Second row exercises numerical stability (exp(1000) overflows naive code).
	if !almostEq(m.At(1, 0), 1.0/3, 1e-12) {
		t.Fatal("softmax unstable on large inputs")
	}
}

func TestSigmoid(t *testing.T) {
	if !almostEq(Sigmoid(0), 0.5, 1e-12) {
		t.Fatal("Sigmoid(0) != 0.5")
	}
	if Sigmoid(1000) != 1 || !almostEq(Sigmoid(-1000), 0, 1e-12) {
		t.Fatal("Sigmoid saturation wrong")
	}
	if !almostEq(Sigmoid(2)+Sigmoid(-2), 1, 1e-12) {
		t.Fatal("Sigmoid symmetry broken")
	}
}

func TestAddAndScale(t *testing.T) {
	a := &Mat{Rows: 1, Cols: 3, Data: []float64{1, 2, 3}}
	b := &Mat{Rows: 1, Cols: 3, Data: []float64{10, 20, 30}}
	c := Add(a, b)
	if c.Data[2] != 33 {
		t.Fatal("Add wrong")
	}
	AddInPlace(a, b)
	if a.Data[0] != 11 {
		t.Fatal("AddInPlace wrong")
	}
	a.Scale(2)
	if a.Data[0] != 22 {
		t.Fatal("Scale wrong")
	}
	a.Zero()
	if a.Norm() != 0 {
		t.Fatal("Zero/Norm wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := &Mat{Rows: 1, Cols: 2, Data: []float64{1, 2}}
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone aliases source")
	}
}

func randMat(r *sim.Rand, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}
