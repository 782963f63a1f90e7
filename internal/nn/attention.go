package nn

import (
	"math"

	"github.com/pythia-db/pythia/internal/sim"
)

// MHSA is multi-head self-attention (Vaswani et al.): per head h,
// Attention(Qh, Kh, Vh) = softmax(Qh Khᵀ / √dₕ) Vh, heads concatenated and
// projected. Pythia's encoder stacks two of these with 10 heads at model
// dimension 100 (paper §5.1); the experiment configs scale the dimensions
// down but keep the architecture.
//
// Heads run one after another, each reading its column blocks of q, k, v
// and the incoming gradient in place and writing its results straight into
// its column blocks of concat (forwardHead), or of dq, dk and dv on the way
// back (backwardFrom).
type MHSA struct {
	D, H, Dh int
	Wq, Wk   *Linear
	Wv, Wo   *Linear

	rt Runtime

	// caches for backward
	q, k, v *Mat
	attn    []*Mat // per-head attention probabilities (query rows × n)
	concat  *Mat
}

// NewMHSA builds an attention block. D must be divisible by H.
func NewMHSA(name string, d, heads int, r *sim.Rand) *MHSA {
	if heads <= 0 || d%heads != 0 {
		panic("nn: model dim must be divisible by head count")
	}
	return &MHSA{
		D: d, H: heads, Dh: d / heads,
		Wq: NewLinear(name+".q", d, d, r),
		Wk: NewLinear(name+".k", d, d, r),
		Wv: NewLinear(name+".v", d, d, r),
		Wo: NewLinear(name+".o", d, d, r),
	}
}

// SetRuntime binds execution resources for the block and its projections.
func (a *MHSA) SetRuntime(rt Runtime) {
	a.rt = rt
	a.Wq.SetRuntime(rt)
	a.Wk.SetRuntime(rt)
	a.Wv.SetRuntime(rt)
	a.Wo.SetRuntime(rt)
}

// share returns a block over a's projections' parameters with its own
// caches and scratch, computing in rt.
func (a *MHSA) share(rt Runtime) *MHSA {
	return &MHSA{
		D: a.D, H: a.H, Dh: a.Dh,
		Wq: a.Wq.share(rt), Wk: a.Wk.share(rt), Wv: a.Wv.share(rt), Wo: a.Wo.share(rt),
		rt: rt,
	}
}

// Params returns all projection parameters.
func (a *MHSA) Params() []*Param {
	var out []*Param
	for _, l := range []*Linear{a.Wq, a.Wk, a.Wv, a.Wo} {
		out = append(out, l.Params()...)
	}
	return out
}

// Forward computes self-attention over the n×D sequence x.
func (a *MHSA) Forward(x *Mat) *Mat { return a.forwardFrom(x, 0) }

// Backward propagates dY through the attention block and returns dX.
func (a *MHSA) Backward(dy *Mat) *Mat { return a.backwardFrom(dy, 0) }

// forwardFrom computes the attention output for query rows [from, n) of the
// n×D sequence x: keys and values are projected for every row, everything
// on the query side — Q, scores, softmax, the head outputs and Wo — only
// for the m = n−from rows asked for. An output row depends on its own
// query row and on all of K and V, never on another query row, and each
// kernel computes a row with the same operations in the same order whatever
// rows sit beside it, so the m×D result equals rows [from, n) of
// forwardFrom(x, 0) bit for bit.
func (a *MHSA) forwardFrom(x *Mat, from int) *Mat {
	n, m := x.Rows, x.Rows-from
	a.q = a.Wq.Forward(a.rt.rowsFrom(x, from))
	a.k = a.Wk.Forward(x)
	a.v = a.Wv.Forward(x)
	if cap(a.attn) < a.H {
		a.attn = make([]*Mat, a.H)
	}
	a.attn = a.attn[:a.H]
	// Each head writes its P·V straight into its column block of concat,
	// so every element is written and none is cleared first. An element is
	// a sum that starts at +0 and only adds, which under round-to-nearest is
	// never −0, so it equals +0 + P·V, what adding the head into a zeroed
	// concat gave. The tests' NaN-poisoned arena shows any element missed.
	a.concat = a.rt.get(m, a.D)
	// kt is Kᵀ: head h's K_hᵀ is its rows [h·Dh, (h+1)·Dh).
	kt := a.rt.get(a.D, n)
	transposeInto(kt, a.k)
	scale := 1 / math.Sqrt(float64(a.Dh))
	for h := range a.attn {
		a.attn[h] = a.rt.get(m, n)
		a.forwardHead(h, kt, scale)
	}
	return a.Wo.Forward(a.concat)
}

// forwardHead computes one head's attention probabilities into a.attn[h],
// softmax(Q_h K_hᵀ · scale) row by row, and their product with V_h into the
// head's column block of concat. Q_h and V_h are read in place from q and v.
func (a *MHSA) forwardHead(h int, kt *Mat, scale float64) {
	off, n, m := h*a.Dh, a.k.Rows, a.q.Rows
	scores := a.attn[h]
	gemm(scores.Data, n, a.q.Data[off:], a.D, kt.Data[off*n:], n, m, a.Dh, n, nil, false, false)
	scores.SoftmaxRows(scale)
	gemm(a.concat.Data[off:], a.D, scores.Data, n, a.v.Data[off:], a.D, m, n, a.Dh, nil, false, false)
}

// backwardFrom is forwardFrom's backward pass: dy is the m×D gradient of the
// rows forwardFrom(x, from) returned, the result the n×D gradient of x. It is
// what backwardFrom(·, 0) computes from dy zero-padded to n rows, bit for
// bit: a zero gradient row turns into +0 rows of dConcat, dAttn, dScores and
// dQ, and into "+ (±0)" terms at the head of the sums over query rows that
// make dK, dV and the weight gradients — sums that start from +0, which
// adding a zero of either sign leaves at +0 — so dropping those rows drops
// nothing a later step could see.
func (a *MHSA) backwardFrom(dy *Mat, from int) *Mat {
	dConcat := a.Wo.Backward(dy)
	n, m := a.k.Rows, dy.Rows
	// Each head writes its gradients straight into its column blocks of dq,
	// dk and dv, so every element is written once and none is cleared
	// first: each is a sum that starts at +0, as forwardFrom's concat is.
	dq := a.rt.get(m, a.D)
	dk := a.rt.get(n, a.D)
	dv := a.rt.get(n, a.D)
	// vt is Vᵀ: head h's V_hᵀ is its rows [h·Dh, (h+1)·Dh). The heads run
	// one after another, so they share one Aᵀ, dS and dSᵀ.
	vt := a.rt.get(a.D, n)
	transposeInto(vt, a.v)
	at, ds, dst := a.rt.get(n, m), a.rt.get(m, n), a.rt.get(n, m)
	scale := 1 / math.Sqrt(float64(a.Dh))
	for h, attn := range a.attn {
		off := h * a.Dh
		// dV_h = Aᵀ·dO_h and dA = dO_h·V_hᵀ, reading dO_h in place.
		transposeInto(at, attn)
		gemm(dv.Data[off:], a.D, at.Data, m, dConcat.Data[off:], a.D, n, m, a.Dh, nil, false, false)
		gemm(ds.Data, n, dConcat.Data[off:], a.D, vt.Data[off*n:], n, m, a.Dh, n, nil, false, false)
		// Softmax backward in place, row by row: dS = A ⊙ (dA − Σⱼ dAⱼAⱼ)·scale.
		for i := 0; i < m; i++ {
			arow, dsrow := attn.Row(i), ds.Row(i)
			dot := 0.0
			for j := range arow {
				dot += arow[j] * dsrow[j]
			}
			for j := range arow {
				dsrow[j] = arow[j] * (dsrow[j] - dot) * scale
			}
		}
		// dQ_h = dS·K_h and dK_h = dSᵀ·Q_h, reading K_h and Q_h in place.
		transposeInto(dst, ds)
		gemm(dq.Data[off:], a.D, ds.Data, n, a.k.Data[off:], a.D, m, n, a.Dh, nil, false, false)
		gemm(dk.Data[off:], a.D, dst.Data, m, a.q.Data[off:], a.D, n, m, a.Dh, nil, false, false)
	}
	// The one place the sign of a zero could differ from the zero-padded
	// full pass, so dx is built exactly as that pass builds it: the
	// query-side gradient in rows [from, n) of a zeroed n×D matrix (the full
	// pass has +0 there, see above), then the key- and value-side gradients
	// added in the same order — (+0 + −0) + −0 is +0 where −0 + −0 is −0.
	dx := a.rt.padRows(a.Wq.Backward(dq), from, n)
	AddInPlace(dx, a.Wk.Backward(dk))
	AddInPlace(dx, a.Wv.Backward(dv))
	return dx
}
