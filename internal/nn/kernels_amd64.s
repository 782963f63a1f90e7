#include "textflag.h"

// SSE2 bodies of the kernels declared in kernels_amd64.go. Every packed
// instruction here (MULPD, ADDPD, SUBPD, DIVPD, SQRTPD) rounds each of its two
// lanes exactly as the scalar instruction the Go loop compiles to, and each
// lane runs that loop's operations in that loop's order, so results are the Go
// loops' bit for bit (a NaN's payload aside: which of two NaN operands an add
// keeps depends on operand order, which Go does not fix). Odd lengths finish
// with the scalar instructions. Loads
// and stores are MOVUPD: a row may start at any 8-byte offset. Nothing is
// bounds-checked; the Go callers slice every operand first.

// AXPY4 sets o[j] = o[j] + a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j], added
// left to right, for j < CX, with o at DI, b0..b3 at R8..R11 and a0..a3
// broadcast in X0..X3. Uses AX, BX and X4..X8; the arguments name its labels.
#define AXPY4(pairs, last, done) \
	XORQ AX, AX; \
	MOVQ CX, BX; \
	ANDQ $~1, BX; \
pairs: \
	CMPQ AX, BX; \
	JAE  last; \
	MOVUPD (DI)(AX*8), X4; \
	MOVUPD (R8)(AX*8), X5; \
	MULPD  X0, X5; \
	ADDPD  X5, X4; \
	MOVUPD (R9)(AX*8), X6; \
	MULPD  X1, X6; \
	ADDPD  X6, X4; \
	MOVUPD (R10)(AX*8), X7; \
	MULPD  X2, X7; \
	ADDPD  X7, X4; \
	MOVUPD (R11)(AX*8), X8; \
	MULPD  X3, X8; \
	ADDPD  X8, X4; \
	MOVUPD X4, (DI)(AX*8); \
	ADDQ $2, AX; \
	JMP  pairs; \
last: \
	CMPQ AX, CX; \
	JAE  done; \
	MOVSD (DI)(AX*8), X4; \
	MOVSD (R8)(AX*8), X5; \
	MULSD X0, X5; \
	ADDSD X5, X4; \
	MOVSD (R9)(AX*8), X6; \
	MULSD X1, X6; \
	ADDSD X6, X4; \
	MOVSD (R10)(AX*8), X7; \
	MULSD X2, X7; \
	ADDSD X7, X4; \
	MOVSD (R11)(AX*8), X8; \
	MULSD X3, X8; \
	ADDSD X8, X4; \
	MOVSD X4, (DI)(AX*8); \
done:

// AXPY1 sets o[j] = o[j] + a·b[j] for j < CX, with o at DI, b at R8 and a
// broadcast in X0. Uses AX, BX, X4 and X5; the arguments name its labels.
#define AXPY1(pairs, last, done) \
	XORQ AX, AX; \
	MOVQ CX, BX; \
	ANDQ $~1, BX; \
pairs: \
	CMPQ AX, BX; \
	JAE  last; \
	MOVUPD (DI)(AX*8), X4; \
	MOVUPD (R8)(AX*8), X5; \
	MULPD  X0, X5; \
	ADDPD  X5, X4; \
	MOVUPD X4, (DI)(AX*8); \
	ADDQ $2, AX; \
	JMP  pairs; \
last: \
	CMPQ AX, CX; \
	JAE  done; \
	MOVSD (DI)(AX*8), X4; \
	MOVSD (R8)(AX*8), X5; \
	MULSD X0, X5; \
	ADDSD X5, X4; \
	MOVSD X4, (DI)(AX*8); \
done:

// func axpy4(o []float64, a0, a1, a2, a3 float64, b []float64)
TEXT ·axpy4(SB), NOSPLIT, $0-80
	MOVQ     o_base+0(FP), DI
	MOVQ     o_len+8(FP), CX
	MOVSD    a0+24(FP), X0
	UNPCKLPD X0, X0
	MOVSD    a1+32(FP), X1
	UNPCKLPD X1, X1
	MOVSD    a2+40(FP), X2
	UNPCKLPD X2, X2
	MOVSD    a3+48(FP), X3
	UNPCKLPD X3, X3
	MOVQ     b_base+56(FP), R8
	LEAQ     (R8)(CX*8), R9
	LEAQ     (R9)(CX*8), R10
	LEAQ     (R10)(CX*8), R11
	AXPY4(pairs, last, done)
	RET

// func axpy1(o []float64, a float64, b []float64)
TEXT ·axpy1(SB), NOSPLIT, $0-56
	MOVQ     o_base+0(FP), DI
	MOVQ     o_len+8(FP), CX
	MOVSD    a+24(FP), X0
	UNPCKLPD X0, X0
	MOVQ     b_base+32(FP), R8
	AXPY1(pairs, last, done)
	RET

// func matMulRow(o, a, b []float64)
//
// o = 0, then k four at a time through AXPY4 and the rest through AXPY1; row
// k of b starts at b + 8·k·len(o). SI walks a, DX counts the k left, R12 is
// the row stride in bytes.
TEXT ·matMulRow(SB), NOSPLIT, $0-72
	MOVQ  o_base+0(FP), DI
	MOVQ  o_len+8(FP), CX
	MOVQ  a_base+24(FP), SI
	MOVQ  a_len+32(FP), DX
	MOVQ  b_base+48(FP), R8
	MOVQ  CX, R12
	SHLQ  $3, R12
	XORPS X4, X4
	XORQ  AX, AX

zero:
	CMPQ  AX, CX
	JAE   k4
	MOVSD X4, (DI)(AX*8)
	INCQ  AX
	JMP   zero

k4:
	CMPQ     DX, $4
	JLT      k1
	MOVSD    (SI), X0
	UNPCKLPD X0, X0
	MOVSD    8(SI), X1
	UNPCKLPD X1, X1
	MOVSD    16(SI), X2
	UNPCKLPD X2, X2
	MOVSD    24(SI), X3
	UNPCKLPD X3, X3
	LEAQ     (R8)(R12*1), R9
	LEAQ     (R9)(R12*1), R10
	LEAQ     (R10)(R12*1), R11
	AXPY4(pairs4, last4, done4)
	ADDQ     $32, SI
	LEAQ     (R11)(R12*1), R8
	SUBQ     $4, DX
	JMP      k4

k1:
	TESTQ    DX, DX
	JEQ      ret
	MOVSD    (SI), X0
	UNPCKLPD X0, X0
	AXPY1(pairs1, last1, done1)
	ADDQ     $8, SI
	ADDQ     R12, R8
	DECQ     DX
	JMP      k1

ret:
	RET

// T2PAIR adds a[k]·(r0[k], r1[k]) and then a[k+1]·(r0[k+1], r1[k+1]) into
// the two lanes of acc, with a[k] and a[k+1] broadcast in X8 and X9 and k in
// AX. Uses X10..X12.
#define T2PAIR(r0, r1, acc) \
	MOVUPD   (r0)(AX*8), X10; \
	MOVUPD   (r1)(AX*8), X11; \
	MOVAPD   X10, X12; \
	UNPCKLPD X11, X10; \
	UNPCKHPD X11, X12; \
	MULPD    X8, X10; \
	ADDPD    X10, acc; \
	MULPD    X9, X12; \
	ADDPD    X12, acc

// T2LAST adds a[k]·(r0[k], r1[k]) into the two lanes of acc, with a[k]
// broadcast in X8 and k in AX. Uses X10 and X11.
#define T2LAST(r0, r1, acc) \
	MOVSD    (r0)(AX*8), X10; \
	MOVSD    (r1)(AX*8), X11; \
	UNPCKLPD X11, X10; \
	MULPD    X8, X10; \
	ADDPD    X10, acc

// func matMulT2Row(o, a, b []float64)
//
// o[j] = a · (row j of b), rows of len(a). Eight rows at a time: lanes
// (s0, s1) of X0, (s2, s3) of X1, (s4, s5) of X2 and (s6, s7) of X3 each add
// a[k]·bq[k] in ascending k, the pairs (b0[k], b1[k]) … gathered with
// UNPCKLPD/UNPCKHPD two k at a time. Four accumulators, not two: each one's
// add chain bounds a long dot product, and at K = 128 two accumulators ran no
// faster than the Go loop where four ran 12 % faster. Then four rows at a
// time in X0 and X1, and the last len(o) mod 4 rows one dot product at a
// time. DX holds len(a)−1, so k and k+1 are both in range while k < DX; the
// frame keeps the rows left and the row stride in bytes, since the eight row
// pointers take every other register.
TEXT ·matMulT2Row(SB), NOSPLIT, $16-72
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), DX
	MOVQ b_base+48(FP), R8
	MOVQ DX, AX
	SHLQ $3, AX
	MOVQ AX, stride-16(SP)
	DECQ DX

rows8:
	CMPQ  CX, $8
	JLT   rows4
	MOVQ  CX, left-8(SP)
	MOVQ  stride-16(SP), AX
	LEAQ  (R8)(AX*1), R9
	LEAQ  (R9)(AX*1), R10
	LEAQ  (R10)(AX*1), R11
	LEAQ  (R11)(AX*1), R12
	LEAQ  (R12)(AX*1), R13
	LEAQ  (R13)(AX*1), BX
	LEAQ  (BX)(AX*1), CX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX

k8pairs:
	CMPQ     AX, DX
	JGE      k8last
	MOVUPD   (SI)(AX*8), X8
	MOVAPD   X8, X9
	UNPCKLPD X8, X8
	UNPCKHPD X9, X9
	T2PAIR(R8, R9, X0)
	T2PAIR(R10, R11, X1)
	T2PAIR(R12, R13, X2)
	T2PAIR(BX, CX, X3)
	ADDQ     $2, AX
	JMP      k8pairs

k8last:
	CMPQ     AX, DX
	JNE      store8
	MOVSD    (SI)(AX*8), X8
	UNPCKLPD X8, X8
	T2LAST(R8, R9, X0)
	T2LAST(R10, R11, X1)
	T2LAST(R12, R13, X2)
	T2LAST(BX, CX, X3)

store8:
	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	ADDQ   $64, DI
	MOVQ   stride-16(SP), AX
	LEAQ   (CX)(AX*1), R8
	MOVQ   left-8(SP), CX
	SUBQ   $8, CX
	JMP    rows8

rows4:
	CMPQ  CX, $4
	JLT   rows1
	MOVQ  stride-16(SP), AX
	LEAQ  (R8)(AX*1), R9
	LEAQ  (R9)(AX*1), R10
	LEAQ  (R10)(AX*1), R11
	XORPS X0, X0
	XORPS X1, X1
	XORQ  AX, AX

k4pairs:
	CMPQ     AX, DX
	JGE      k4last
	MOVUPD   (SI)(AX*8), X8
	MOVAPD   X8, X9
	UNPCKLPD X8, X8
	UNPCKHPD X9, X9
	T2PAIR(R8, R9, X0)
	T2PAIR(R10, R11, X1)
	ADDQ     $2, AX
	JMP      k4pairs

k4last:
	CMPQ     AX, DX
	JNE      store4
	MOVSD    (SI)(AX*8), X8
	UNPCKLPD X8, X8
	T2LAST(R8, R9, X0)
	T2LAST(R10, R11, X1)

store4:
	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	ADDQ   $32, DI
	MOVQ   stride-16(SP), AX
	LEAQ   (R11)(AX*1), R8
	SUBQ   $4, CX

rows1:
	TESTQ CX, CX
	JEQ   ret
	XORPS X0, X0
	XORQ  AX, AX

kone:
	CMPQ  AX, DX
	JGT   store1
	MOVSD (SI)(AX*8), X8
	MULSD (R8)(AX*8), X8
	ADDSD X8, X0
	INCQ  AX
	JMP   kone

store1:
	MOVSD X0, (DI)
	ADDQ  $8, DI
	ADDQ  stride-16(SP), R8
	DECQ  CX
	JMP   rows1

ret:
	RET

// func adamRow(w, g, m, v []float64, scale, beta1, c1, beta2, c2, bc1, bc2, lr, eps float64)
//
// Per element, as adamRowGo: gi = g·scale; m = β1·m + c1·gi;
// v = β2·v + (c2·gi)·gi; w = w − (lr·(m/bc1)) / (√(v/bc2) + ε). The nine
// scalars sit broadcast in X6..X14.
TEXT ·adamRow(SB), NOSPLIT, $0-168
	MOVQ     w_base+0(FP), DI
	MOVQ     w_len+8(FP), CX
	MOVQ     g_base+24(FP), SI
	MOVQ     m_base+48(FP), R8
	MOVQ     v_base+72(FP), R9
	MOVSD    scale+96(FP), X6
	UNPCKLPD X6, X6
	MOVSD    beta1+104(FP), X7
	UNPCKLPD X7, X7
	MOVSD    c1+112(FP), X8
	UNPCKLPD X8, X8
	MOVSD    beta2+120(FP), X9
	UNPCKLPD X9, X9
	MOVSD    c2+128(FP), X10
	UNPCKLPD X10, X10
	MOVSD    bc1+136(FP), X11
	UNPCKLPD X11, X11
	MOVSD    bc2+144(FP), X12
	UNPCKLPD X12, X12
	MOVSD    lr+152(FP), X13
	UNPCKLPD X13, X13
	MOVSD    eps+160(FP), X14
	UNPCKLPD X14, X14
	MOVQ     CX, BX
	ANDQ     $~1, BX
	XORQ     AX, AX

pairs:
	CMPQ   AX, BX
	JAE    last
	MOVUPD (SI)(AX*8), X0
	MULPD  X6, X0
	MOVUPD (R8)(AX*8), X1
	MULPD  X7, X1
	MOVAPD X8, X2
	MULPD  X0, X2
	ADDPD  X2, X1
	MOVUPD X1, (R8)(AX*8)
	MOVUPD (R9)(AX*8), X3
	MULPD  X9, X3
	MOVAPD X10, X4
	MULPD  X0, X4
	MULPD  X0, X4
	ADDPD  X4, X3
	MOVUPD X3, (R9)(AX*8)
	DIVPD  X11, X1
	MULPD  X13, X1
	DIVPD  X12, X3
	SQRTPD X3, X3
	ADDPD  X14, X3
	DIVPD  X3, X1
	MOVUPD (DI)(AX*8), X5
	SUBPD  X1, X5
	MOVUPD X5, (DI)(AX*8)
	ADDQ   $2, AX
	JMP    pairs

last:
	CMPQ   AX, CX
	JAE    done
	MOVSD  (SI)(AX*8), X0
	MULSD  X6, X0
	MOVSD  (R8)(AX*8), X1
	MULSD  X7, X1
	MOVAPD X8, X2
	MULSD  X0, X2
	ADDSD  X2, X1
	MOVSD  X1, (R8)(AX*8)
	MOVSD  (R9)(AX*8), X3
	MULSD  X9, X3
	MOVAPD X10, X4
	MULSD  X0, X4
	MULSD  X0, X4
	ADDSD  X4, X3
	MOVSD  X3, (R9)(AX*8)
	DIVSD  X11, X1
	MULSD  X13, X1
	DIVSD  X12, X3
	SQRTSD X3, X3
	ADDSD  X14, X3
	DIVSD  X3, X1
	MOVSD  (DI)(AX*8), X5
	SUBSD  X1, X5
	MOVSD  X5, (DI)(AX*8)

done:
	RET
