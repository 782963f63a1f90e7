#include "textflag.h"

// AVX bodies of the kernels declared in kernels_amd64.go. Each kernel first
// reads useAVX and, when it is false, jumps to its Go loop (gemmGo for
// gemmKernel, else same name, suffix Go), which finds its arguments where
// the caller left them. Every packed instruction here (VMULPD, VADDPD,
// VSUBPD, VDIVPD, VSQRTPD, VMAXPD) rounds or selects in each of its lanes
// exactly as the scalar instruction or branch the Go loop compiles to, and
// each lane runs that loop's operations in that loop's order — no FMA where
// the Go loop has none (only exp4, copying math.Exp's assembly, fuses), no
// reassociation — so results are the Go loops' bit for bit (a NaN's payload
// aside: which of two NaN operands an add keeps depends on operand order,
// which Go does not fix; and softmaxShift's maximum, whose order matters only
// for the sign of a zero). A length that is not a multiple of the lane count
// finishes with the VEX scalar instructions. Loads and stores are unaligned:
// a row may start at any 8-byte offset. Every kernel ends with VZEROUPPER, so
// the SSE code the Go compiler emits pays no state transition. Nothing is
// bounds-checked; the Go callers slice every operand first.

// PICK jumps to the Go loop fn unless useAVX is set. The kernels have no
// frame of their own, so fn runs as if the caller had called it.
#define PICK(fn) \
	CMPB ·useAVX(SB), $0; \
	JNE  2(PC); \
	JMP  fn(SB)

// The macros from here to hasAVX are gemmKernel's. TILE, ACC, EPILOGUE and
// RELUTEST read its arguments, so they sit before every TEXT: vet's asmdecl
// would check a macro below a function against that function's frame.

// MUL4 adds b·a into acc with the product rounded first, as the Go loop's
// acc + a·b: tmp = b·a, acc = acc + tmp. b may be a memory operand.
#define MUL4(b, a, acc, tmp) \
	VMULPD b, a, tmp; \
	VADDPD tmp, acc, acc

// MUL1 is MUL4 on the low lane alone.
#define MUL1(b, a, acc, tmp) \
	VMULSD b, a, tmp; \
	VADDSD tmp, acc, acc

// BIAS4 and RELU4 are the epilogue on one accumulator: acc + bias[j+off/8],
// then max(acc, +0) with +0 in Y15. VMAXPD returns its second source unless
// the first is greater, so the ReLU is "acc if acc > 0, else +0", −0 and NaN
// included, as the Go loop's branch. CX holds the bias pointer, AX j.
#define BIAS4(off, acc) VADDPD off(CX)(AX*8), acc, acc
#define RELU4(acc) VMAXPD Y15, acc, acc
#define BIAS1(acc) VADDSD (CX)(AX*8), acc, acc
#define RELU1(acc) VMAXSD X15, acc, acc

// TILE starts a tile at column AX: CX walks row 0 of its a rows from SI,
// BX row p of b from column j, DX counts the k left, Y15 is +0.
#define TILE \
	MOVQ   SI, CX; \
	MOVQ   b_base+64(FP), BX; \
	LEAQ   (BX)(AX*8), BX; \
	MOVQ   k+104(FP), DX; \
	VXORPD Y15, Y15, Y15

// ACC jumps to load when acc is set: the tile's accumulators then start
// from o, not from +0.
#define ACC(load) \
	CMPB acc+145(FP), $0; \
	JNE  load

// EPILOGUE jumps to bias or relu, or to store when neither is asked for,
// leaving the bias pointer in CX.
#define EPILOGUE(bias, relu, store) \
	MOVQ bias_base+120(FP), CX; \
	CMPQ bias_len+128(FP), $0; \
	JNE  bias; \
	CMPB relu+144(FP), $0; \
	JNE  relu; \
	JMP  store

// RELUTEST sits between the bias adds and the ReLU: it skips to store when
// no ReLU is asked for.
#define RELUTEST(store) \
	CMPB relu+144(FP), $0; \
	JEQ  store

// func hasAVX() bool
//
// CPUID leaf 1 reports FMA (ECX bit 12), OSXSAVE (bit 27) and AVX (bit 28);
// XGETBV then reports whether the OS saves the XMM and YMM registers (XCR0
// bits 1 and 2), and leaf 7 reports AVX2 (EBX bit 5). Leaf 0 gives the
// highest leaf there is.
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	XORL   AX, AX
	XORL   CX, CX
	CPUID
	CMPL   AX, $7
	JLT    no
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18001000, CX
	CMPL   CX, $0x18001000
	JNE    no
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	TESTL  $0x20, BX
	JEQ    no
	MOVB   $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func gemmKernel(o []float64, ldo int, a []float64, lda int, b []float64, ldb int, m, k, n int, bias []float64, relu, acc bool)
//
// o[i·ldo+j] = act(s + Σₚ a[i·lda+p]·b[p·ldb+j] + bias[j]), as gemmGo: each
// output starts at s, +0 or (if acc) its value in o, and adds its products
// in ascending p, then the bias (if len(bias) > 0), then the ReLU (if relu).
// Register-tiled: four rows of o at a time in tiles of 4×8 (eight YMM
// accumulators, held across the whole k loop), then 4×4 and 4×1 for the last
// n mod 8 columns; the last m mod 4 rows one at a time in tiles of 1×32
// (eight accumulators again: one row has no other work to hide an add's
// latency behind), then 1×8, 1×4 and 1×1. A k step of a tile loads its slice
// of b's row p once and broadcasts each of its a[i·lda+p]. DI and SI are the
// rows of o and a the tiles start on, AX the column, R8 lda and R9 3·lda in
// bytes, R10 ldb and R11 ldo in bytes, R12 n, R13 the rows left; R14 is
// scratch.
TEXT ·gemmKernel(SB), NOSPLIT, $0-146
	PICK(·gemmGo)
	MOVQ o_base+0(FP), DI
	MOVQ ldo+24(FP), R11
	SHLQ $3, R11
	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	MOVQ ldb+88(FP), R10
	SHLQ $3, R10
	MOVQ m+96(FP), R13
	MOVQ n+112(FP), R12

rows4:
	CMPQ R13, $4
	JLT  rows1
	XORQ AX, AX

t48:
	LEAQ   8(AX), R14
	CMPQ   R14, R12
	JGT    t44
	TILE
	ACC(t48load)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP    t48go

t48load:
	LEAQ    (DI)(AX*8), R14
	VMOVUPD (R14), Y0
	VMOVUPD 32(R14), Y1
	VMOVUPD (R14)(R11*1), Y2
	VMOVUPD 32(R14)(R11*1), Y3
	VMOVUPD (R14)(R11*2), Y4
	VMOVUPD 32(R14)(R11*2), Y5
	ADDQ    R11, R14
	VMOVUPD (R14)(R11*2), Y6
	VMOVUPD 32(R14)(R11*2), Y7

t48go:
	TESTQ DX, DX
	JEQ   t48epi

t48k:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (CX), Y10
	MUL4(Y8, Y10, Y0, Y11)
	MUL4(Y9, Y10, Y1, Y12)
	VBROADCASTSD (CX)(R8*1), Y13
	MUL4(Y8, Y13, Y2, Y14)
	MUL4(Y9, Y13, Y3, Y11)
	VBROADCASTSD (CX)(R8*2), Y10
	MUL4(Y8, Y10, Y4, Y12)
	MUL4(Y9, Y10, Y5, Y14)
	VBROADCASTSD (CX)(R9*1), Y13
	MUL4(Y8, Y13, Y6, Y11)
	MUL4(Y9, Y13, Y7, Y12)
	ADDQ         $8, CX
	ADDQ         R10, BX
	DECQ         DX
	JNZ          t48k

t48epi:
	EPILOGUE(t48bias, t48relu, t48store)

t48bias:
	BIAS4(0, Y0)
	BIAS4(32, Y1)
	BIAS4(0, Y2)
	BIAS4(32, Y3)
	BIAS4(0, Y4)
	BIAS4(32, Y5)
	BIAS4(0, Y6)
	BIAS4(32, Y7)
	RELUTEST(t48store)

t48relu:
	RELU4(Y0)
	RELU4(Y1)
	RELU4(Y2)
	RELU4(Y3)
	RELU4(Y4)
	RELU4(Y5)
	RELU4(Y6)
	RELU4(Y7)

t48store:
	LEAQ    (DI)(AX*8), CX
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	VMOVUPD Y2, (CX)(R11*1)
	VMOVUPD Y3, 32(CX)(R11*1)
	VMOVUPD Y4, (CX)(R11*2)
	VMOVUPD Y5, 32(CX)(R11*2)
	ADDQ    R11, CX
	VMOVUPD Y6, (CX)(R11*2)
	VMOVUPD Y7, 32(CX)(R11*2)
	ADDQ    $8, AX
	JMP     t48

t44:
	LEAQ   4(AX), R14
	CMPQ   R14, R12
	JGT    t41
	TILE
	ACC(t44load)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	JMP    t44go

t44load:
	LEAQ    (DI)(AX*8), R14
	VMOVUPD (R14), Y0
	VMOVUPD (R14)(R11*1), Y1
	VMOVUPD (R14)(R11*2), Y2
	ADDQ    R11, R14
	VMOVUPD (R14)(R11*2), Y3

t44go:
	TESTQ DX, DX
	JEQ   t44epi

t44k:
	VMOVUPD      (BX), Y8
	VBROADCASTSD (CX), Y10
	MUL4(Y8, Y10, Y0, Y11)
	VBROADCASTSD (CX)(R8*1), Y13
	MUL4(Y8, Y13, Y1, Y12)
	VBROADCASTSD (CX)(R8*2), Y10
	MUL4(Y8, Y10, Y2, Y14)
	VBROADCASTSD (CX)(R9*1), Y13
	MUL4(Y8, Y13, Y3, Y11)
	ADDQ         $8, CX
	ADDQ         R10, BX
	DECQ         DX
	JNZ          t44k

t44epi:
	EPILOGUE(t44bias, t44relu, t44store)

t44bias:
	BIAS4(0, Y0)
	BIAS4(0, Y1)
	BIAS4(0, Y2)
	BIAS4(0, Y3)
	RELUTEST(t44store)

t44relu:
	RELU4(Y0)
	RELU4(Y1)
	RELU4(Y2)
	RELU4(Y3)

t44store:
	LEAQ    (DI)(AX*8), CX
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, (CX)(R11*1)
	VMOVUPD Y2, (CX)(R11*2)
	ADDQ    R11, CX
	VMOVUPD Y3, (CX)(R11*2)
	ADDQ    $4, AX

t41:
	CMPQ   AX, R12
	JGE    next4
	TILE
	ACC(t41load)
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	JMP    t41go

t41load:
	LEAQ   (DI)(AX*8), R14
	VMOVSD (R14), X0
	VMOVSD (R14)(R11*1), X1
	VMOVSD (R14)(R11*2), X2
	ADDQ   R11, R14
	VMOVSD (R14)(R11*2), X3

t41go:
	TESTQ DX, DX
	JEQ   t41epi

t41k:
	VMOVSD (BX), X8
	MUL1((CX), X8, X0, X11)
	MUL1((CX)(R8*1), X8, X1, X12)
	MUL1((CX)(R8*2), X8, X2, X14)
	MUL1((CX)(R9*1), X8, X3, X11)
	ADDQ   $8, CX
	ADDQ   R10, BX
	DECQ   DX
	JNZ    t41k

t41epi:
	EPILOGUE(t41bias, t41relu, t41store)

t41bias:
	BIAS1(X0)
	BIAS1(X1)
	BIAS1(X2)
	BIAS1(X3)
	RELUTEST(t41store)

t41relu:
	RELU1(X0)
	RELU1(X1)
	RELU1(X2)
	RELU1(X3)

t41store:
	LEAQ   (DI)(AX*8), CX
	VMOVSD X0, (CX)
	VMOVSD X1, (CX)(R11*1)
	VMOVSD X2, (CX)(R11*2)
	ADDQ   R11, CX
	VMOVSD X3, (CX)(R11*2)
	INCQ   AX
	JMP    t41

next4:
	LEAQ (DI)(R11*4), DI
	LEAQ (SI)(R8*4), SI
	SUBQ $4, R13
	JMP  rows4

rows1:
	TESTQ R13, R13
	JEQ   done
	XORQ  AX, AX

t132:
	LEAQ   32(AX), R14
	CMPQ   R14, R12
	JGT    t18
	TILE
	ACC(t132load)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP    t132go

t132load:
	LEAQ    (DI)(AX*8), R14
	VMOVUPD (R14), Y0
	VMOVUPD 32(R14), Y1
	VMOVUPD 64(R14), Y2
	VMOVUPD 96(R14), Y3
	VMOVUPD 128(R14), Y4
	VMOVUPD 160(R14), Y5
	VMOVUPD 192(R14), Y6
	VMOVUPD 224(R14), Y7

t132go:
	TESTQ DX, DX
	JEQ   t132epi

t132k:
	VBROADCASTSD (CX), Y8
	MUL4((BX), Y8, Y0, Y9)
	MUL4(32(BX), Y8, Y1, Y10)
	MUL4(64(BX), Y8, Y2, Y11)
	MUL4(96(BX), Y8, Y3, Y12)
	MUL4(128(BX), Y8, Y4, Y13)
	MUL4(160(BX), Y8, Y5, Y14)
	MUL4(192(BX), Y8, Y6, Y9)
	MUL4(224(BX), Y8, Y7, Y10)
	ADDQ         $8, CX
	ADDQ         R10, BX
	DECQ         DX
	JNZ          t132k

t132epi:
	EPILOGUE(t132bias, t132relu, t132store)

t132bias:
	BIAS4(0, Y0)
	BIAS4(32, Y1)
	BIAS4(64, Y2)
	BIAS4(96, Y3)
	BIAS4(128, Y4)
	BIAS4(160, Y5)
	BIAS4(192, Y6)
	BIAS4(224, Y7)
	RELUTEST(t132store)

t132relu:
	RELU4(Y0)
	RELU4(Y1)
	RELU4(Y2)
	RELU4(Y3)
	RELU4(Y4)
	RELU4(Y5)
	RELU4(Y6)
	RELU4(Y7)

t132store:
	LEAQ    (DI)(AX*8), CX
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	VMOVUPD Y2, 64(CX)
	VMOVUPD Y3, 96(CX)
	VMOVUPD Y4, 128(CX)
	VMOVUPD Y5, 160(CX)
	VMOVUPD Y6, 192(CX)
	VMOVUPD Y7, 224(CX)
	ADDQ    $32, AX
	JMP     t132

t18:
	LEAQ   8(AX), R14
	CMPQ   R14, R12
	JGT    t14
	TILE
	ACC(t18load)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	JMP    t18go

t18load:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1

t18go:
	TESTQ DX, DX
	JEQ   t18epi

t18k:
	VBROADCASTSD (CX), Y8
	MUL4((BX), Y8, Y0, Y9)
	MUL4(32(BX), Y8, Y1, Y10)
	ADDQ         $8, CX
	ADDQ         R10, BX
	DECQ         DX
	JNZ          t18k

t18epi:
	EPILOGUE(t18bias, t18relu, t18store)

t18bias:
	BIAS4(0, Y0)
	BIAS4(32, Y1)
	RELUTEST(t18store)

t18relu:
	RELU4(Y0)
	RELU4(Y1)

t18store:
	LEAQ    (DI)(AX*8), CX
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	ADDQ    $8, AX
	JMP     t18

t14:
	LEAQ   4(AX), R14
	CMPQ   R14, R12
	JGT    t11
	TILE
	ACC(t14load)
	VXORPD Y0, Y0, Y0
	JMP    t14go

t14load:
	VMOVUPD (DI)(AX*8), Y0

t14go:
	TESTQ DX, DX
	JEQ   t14epi

t14k:
	VBROADCASTSD (CX), Y8
	MUL4((BX), Y8, Y0, Y9)
	ADDQ         $8, CX
	ADDQ         R10, BX
	DECQ         DX
	JNZ          t14k

t14epi:
	EPILOGUE(t14bias, t14relu, t14store)

t14bias:
	BIAS4(0, Y0)
	RELUTEST(t14store)

t14relu:
	RELU4(Y0)

t14store:
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

t11:
	CMPQ   AX, R12
	JGE    next1
	TILE
	ACC(t11load)
	VXORPD X0, X0, X0
	JMP    t11go

t11load:
	VMOVSD (DI)(AX*8), X0

t11go:
	TESTQ DX, DX
	JEQ   t11epi

t11k:
	VMOVSD (CX), X8
	MUL1((BX), X8, X0, X9)
	ADDQ   $8, CX
	ADDQ   R10, BX
	DECQ   DX
	JNZ    t11k

t11epi:
	EPILOGUE(t11bias, t11relu, t11store)

t11bias:
	BIAS1(X0)
	RELUTEST(t11store)

t11relu:
	RELU1(X0)

t11store:
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    t11

next1:
	ADDQ R11, DI
	ADDQ R8, SI
	DECQ R13
	JMP  rows1

done:
	VZEROUPPER
	RET

// T2PAIR adds a[k]·(r0[k], r1[k]) and then a[k+1]·(r0[k+1], r1[k+1]) into
// the two lanes of acc, with a[k] and a[k+1] broadcast in X8 and X9 and k in
// AX. Uses X10..X13.
#define T2PAIR(r0, r1, acc) \
	VMOVUPD   (r0)(AX*8), X10; \
	VMOVUPD   (r1)(AX*8), X11; \
	VUNPCKLPD X11, X10, X12; \
	VUNPCKHPD X11, X10, X13; \
	VMULPD    X8, X12, X12; \
	VADDPD    X12, acc, acc; \
	VMULPD    X9, X13, X13; \
	VADDPD    X13, acc, acc

// T2LAST adds a[k]·(r0[k], r1[k]) into the two lanes of acc, with a[k]
// broadcast in X8 and k in AX. Uses X10 and X11.
#define T2LAST(r0, r1, acc) \
	VMOVSD    (r0)(AX*8), X10; \
	VMOVSD    (r1)(AX*8), X11; \
	VUNPCKLPD X11, X10, X10; \
	VMULPD    X8, X10, X10; \
	VADDPD    X10, acc, acc

// STRIDE sets AX to the row stride of b in bytes, 8·len(a), from DX.
#define STRIDE \
	LEAQ 1(DX), AX; \
	SHLQ $3, AX

// func matMulT2Row(o, a, b []float64)
//
// o[j] = a · (row j of b), rows of len(a). Eight rows at a time: lanes
// (s0, s1) of X0, (s2, s3) of X1, (s4, s5) of X2 and (s6, s7) of X3 each add
// a[k]·bq[k] in ascending k, the pairs (b0[k], b1[k]) … gathered with
// VUNPCKLPD/VUNPCKHPD two k at a time. Each output is one serial add chain,
// so the number of chains in flight, not the lane width, bounds a long dot
// product: at K = 128 two accumulators ran no faster than the Go loop where
// four ran 12 % faster. Then four rows at a time in X0 and X1, and the last
// len(o) mod 4 rows one dot product at a time. DX holds len(a)−1, so k and
// k+1 are both in range while k < DX; R14 counts the rows left, and STRIDE
// recomputes the row stride where it is needed, since the eight row pointers
// take the other registers.
TEXT ·matMulT2Row(SB), NOSPLIT, $0-72
	PICK(·matMulT2RowGo)
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), R14
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), DX
	MOVQ b_base+48(FP), R8
	DECQ DX

rows8:
	CMPQ   R14, $8
	JLT    rows4
	STRIDE
	LEAQ   (R8)(AX*1), R9
	LEAQ   (R9)(AX*1), R10
	LEAQ   (R10)(AX*1), R11
	LEAQ   (R11)(AX*1), R12
	LEAQ   (R12)(AX*1), R13
	LEAQ   (R13)(AX*1), BX
	LEAQ   (BX)(AX*1), CX
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	XORQ   AX, AX

k8pairs:
	CMPQ     AX, DX
	JGE      k8last
	VMOVDDUP (SI)(AX*8), X8
	VMOVDDUP 8(SI)(AX*8), X9
	T2PAIR(R8, R9, X0)
	T2PAIR(R10, R11, X1)
	T2PAIR(R12, R13, X2)
	T2PAIR(BX, CX, X3)
	ADDQ     $2, AX
	JMP      k8pairs

k8last:
	CMPQ     AX, DX
	JNE      store8
	VMOVDDUP (SI)(AX*8), X8
	T2LAST(R8, R9, X0)
	T2LAST(R10, R11, X1)
	T2LAST(R12, R13, X2)
	T2LAST(BX, CX, X3)

store8:
	VMOVUPD X0, (DI)
	VMOVUPD X1, 16(DI)
	VMOVUPD X2, 32(DI)
	VMOVUPD X3, 48(DI)
	ADDQ    $64, DI
	STRIDE
	LEAQ    (CX)(AX*1), R8
	SUBQ    $8, R14
	JMP     rows8

rows4:
	CMPQ   R14, $4
	JLT    rows1
	STRIDE
	LEAQ   (R8)(AX*1), R9
	LEAQ   (R9)(AX*1), R10
	LEAQ   (R10)(AX*1), R11
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	XORQ   AX, AX

k4pairs:
	CMPQ     AX, DX
	JGE      k4last
	VMOVDDUP (SI)(AX*8), X8
	VMOVDDUP 8(SI)(AX*8), X9
	T2PAIR(R8, R9, X0)
	T2PAIR(R10, R11, X1)
	ADDQ     $2, AX
	JMP      k4pairs

k4last:
	CMPQ     AX, DX
	JNE      store4
	VMOVDDUP (SI)(AX*8), X8
	T2LAST(R8, R9, X0)
	T2LAST(R10, R11, X1)

store4:
	VMOVUPD X0, (DI)
	VMOVUPD X1, 16(DI)
	ADDQ    $32, DI
	STRIDE
	LEAQ    (R11)(AX*1), R8
	SUBQ    $4, R14

rows1:
	TESTQ  R14, R14
	JEQ    ret
	VXORPD X0, X0, X0
	XORQ   AX, AX

kone:
	CMPQ   AX, DX
	JGT    store1
	VMOVSD (SI)(AX*8), X8
	VMULSD (R8)(AX*8), X8, X8
	VADDSD X8, X0, X0
	INCQ   AX
	JMP    kone

store1:
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	STRIDE
	ADDQ   AX, R8
	DECQ   R14
	JMP    rows1

ret:
	VZEROUPPER
	RET

// func transpose4(o []float64, stride int, a []float64)
//
// Column j of the 4×(len(a)/4) rows in a goes to o[j·stride:][:4]: four
// columns at a time as a 4×4 transpose in registers (VUNPCKLPD/VUNPCKHPD
// pair the rows, VPERM2F128 joins the halves), then one at a time. DI walks
// o by column, R8..R11 are the rows, R12 is the stride in bytes.
TEXT ·transpose4(SB), NOSPLIT, $0-56
	PICK(·transpose4Go)
	MOVQ o_base+0(FP), DI
	MOVQ stride+24(FP), R12
	SHLQ $3, R12
	MOVQ a_base+32(FP), R8
	MOVQ a_len+40(FP), CX
	SHRQ $2, CX
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	LEAQ (R10)(CX*8), R11
	MOVQ CX, BX
	ANDQ $~3, BX
	XORQ AX, AX

quads:
	CMPQ       AX, BX
	JAE        last
	VMOVUPD    (R8)(AX*8), Y0
	VMOVUPD    (R9)(AX*8), Y1
	VMOVUPD    (R10)(AX*8), Y2
	VMOVUPD    (R11)(AX*8), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD    Y0, (DI)
	ADDQ       R12, DI
	VMOVUPD    Y1, (DI)
	ADDQ       R12, DI
	VMOVUPD    Y2, (DI)
	ADDQ       R12, DI
	VMOVUPD    Y3, (DI)
	ADDQ       R12, DI
	ADDQ       $4, AX
	JMP        quads

last:
	CMPQ   AX, CX
	JAE    done
	VMOVSD (R8)(AX*8), X0
	VMOVSD X0, (DI)
	VMOVSD (R9)(AX*8), X0
	VMOVSD X0, 8(DI)
	VMOVSD (R10)(AX*8), X0
	VMOVSD X0, 16(DI)
	VMOVSD (R11)(AX*8), X0
	VMOVSD X0, 24(DI)
	ADDQ   R12, DI
	INCQ   AX
	JMP    last

done:
	VZEROUPPER
	RET

// func adamRow(w, g, m, v []float64, scale, beta1, c1, beta2, c2, bc1, bc2, lr, eps float64)
//
// Per element, as adamRowGo: gi = g·scale, then g = +0; m = β1·m + c1·gi;
// v = β2·v + (c2·gi)·gi; w = w − (lr·(m/bc1)) / (√(v/bc2) + ε), the
// division by bc1 skipped when bc1 is 1 (DX = 0). The nine scalars sit
// broadcast in Y6..Y14, +0 in Y15. Four elements per pass, then one.
TEXT ·adamRow(SB), NOSPLIT, $0-168
	PICK(·adamRowGo)
	MOVQ         bc1+136(FP), DX
	MOVQ         $0x3ff0000000000000, R10
	SUBQ         R10, DX
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	MOVQ         m_base+48(FP), R8
	MOVQ         v_base+72(FP), R9
	VBROADCASTSD scale+96(FP), Y6
	VBROADCASTSD beta1+104(FP), Y7
	VBROADCASTSD c1+112(FP), Y8
	VBROADCASTSD beta2+120(FP), Y9
	VBROADCASTSD c2+128(FP), Y10
	VBROADCASTSD bc1+136(FP), Y11
	VBROADCASTSD bc2+144(FP), Y12
	VBROADCASTSD lr+152(FP), Y13
	VBROADCASTSD eps+160(FP), Y14
	VXORPD       Y15, Y15, Y15
	MOVQ         CX, BX
	ANDQ         $~3, BX
	XORQ         AX, AX

quads:
	CMPQ    AX, BX
	JAE     last
	VMULPD  (SI)(AX*8), Y6, Y0
	VMOVUPD Y15, (SI)(AX*8)
	VMULPD  (R8)(AX*8), Y7, Y1
	VMULPD  Y0, Y8, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (R8)(AX*8)
	VMULPD  (R9)(AX*8), Y9, Y3
	VMULPD  Y0, Y10, Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (R9)(AX*8)
	TESTQ   DX, DX
	JEQ     mhat4
	VDIVPD  Y11, Y1, Y1

mhat4:
	VMULPD  Y13, Y1, Y1
	VDIVPD  Y12, Y3, Y3
	VSQRTPD Y3, Y3
	VADDPD  Y14, Y3, Y3
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(AX*8), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     quads

last:
	CMPQ    AX, CX
	JAE     done
	VMULSD  (SI)(AX*8), X6, X0
	VMOVSD  X15, (SI)(AX*8)
	VMULSD  (R8)(AX*8), X7, X1
	VMULSD  X0, X8, X2
	VADDSD  X2, X1, X1
	VMOVSD  X1, (R8)(AX*8)
	VMULSD  (R9)(AX*8), X9, X3
	VMULSD  X0, X10, X4
	VMULSD  X0, X4, X4
	VADDSD  X4, X3, X3
	VMOVSD  X3, (R9)(AX*8)
	TESTQ   DX, DX
	JEQ     mhat1
	VDIVSD  X11, X1, X1

mhat1:
	VMULSD  X13, X1, X1
	VDIVSD  X12, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD  X14, X3, X3
	VDIVSD  X3, X1, X1
	VMOVSD  (DI)(AX*8), X5
	VSUBSD  X1, X5, X5
	VMOVSD  X5, (DI)(AX*8)
	INCQ    AX
	JMP     last

done:
	VZEROUPPER
	RET

// The constants of math.Exp's amd64 assembly (exp_amd64.s): log₂e, ln 2 as
// an upper and a lower part, the 1/16 argument reduction, the Taylor
// coefficients 1/8! … 1/3!, 1/2, 1 and the 2 of the squarings; then, as
// four int32 each, the bounds of a normal 2^k, −1022 and 1023 (the upper
// one is also the exponent bias).
DATA expconst<>+0(SB)/8, $1.4426950408889634073599246810018920
DATA expconst<>+8(SB)/8, $0.69314718055966295651160180568695068359375
DATA expconst<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expconst<>+24(SB)/8, $0.0625
DATA expconst<>+32(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+40(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+48(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+56(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+64(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+72(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+80(SB)/8, $0.5
DATA expconst<>+88(SB)/8, $1.0
DATA expconst<>+96(SB)/8, $2.0
DATA expconst<>+104(SB)/4, $-1022
DATA expconst<>+108(SB)/4, $-1022
DATA expconst<>+112(SB)/4, $-1022
DATA expconst<>+116(SB)/4, $-1022
DATA expconst<>+120(SB)/4, $1023
DATA expconst<>+124(SB)/4, $1023
DATA expconst<>+128(SB)/4, $1023
DATA expconst<>+132(SB)/4, $1023
GLOBL expconst<>(SB), RODATA|NOPTR, $136

// func exp4(x []float64) int
//
// x[i] = math.Exp(x[i]) for the whole quads of x, as exp4Go, but stopping
// before the first quad with a lane whose 2^k is not a normal number; the
// result is how many elements it did. Each lane runs the instructions of
// math.Exp's FMA path (the one it takes on every CPU useAVX admits) in their
// order, packed: k = round(x·log₂e) (VCVTPD2DQ, as CVTSD2SL rounds), the
// reduction x − k·ln2 as two fused steps, ×1/16, the Taylor polynomial in
// fused multiply-adds, four squarings (r·(r + 2), the last one fused with
// the + 1), and the product with 2^k built in the exponent field. Those
// are the same IEEE operations on the same operands, so every lane equals
// math.Exp bit for bit. math.Exp leaves that path for non-finite x, x above
// its overflow bound and k outside [−1022, 1023] (a subnormal, zero or
// infinite result); the first two convert to k = −2³¹ or k ≥ 1024, so the
// one range check on k (clamped k ≠ k) sends all three back to math.Exp
// through the caller. Y3..Y15 hold the broadcast constants; Y0 is x, Y1 the
// polynomial, X2 k.
TEXT ·exp4(SB), NOSPLIT, $0-32
	PICK(·exp4Go)
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), BX
	ANDQ         $~3, BX
	LEAQ         expconst<>(SB), SI
	VBROADCASTSD 0(SI), Y3
	VBROADCASTSD 8(SI), Y4
	VBROADCASTSD 16(SI), Y5
	VBROADCASTSD 24(SI), Y6
	VBROADCASTSD 32(SI), Y7
	VBROADCASTSD 40(SI), Y8
	VBROADCASTSD 48(SI), Y9
	VBROADCASTSD 56(SI), Y10
	VBROADCASTSD 64(SI), Y11
	VBROADCASTSD 72(SI), Y12
	VBROADCASTSD 80(SI), Y13
	VBROADCASTSD 88(SI), Y14
	VBROADCASTSD 96(SI), Y15
	XORQ         AX, AX

quads:
	CMPQ        AX, BX
	JAE         done
	VMOVUPD     (DI)(AX*8), Y0
	VMULPD      Y3, Y0, Y1
	VCVTPD2DQY  Y1, X2
	VPMAXSD     104(SI), X2, X1
	VPMINSD     120(SI), X1, X1
	VPCMPEQD    X2, X1, X1
	VMOVMSKPS   X1, CX
	CMPL        CX, $15
	JNE         done
	VCVTDQ2PD   X2, Y1
	VFNMADD231PD Y4, Y1, Y0
	VFNMADD231PD Y5, Y1, Y0
	VMULPD      Y6, Y0, Y0
	VMOVAPD     Y7, Y1
	VFMADD213PD Y8, Y0, Y1
	VFMADD213PD Y9, Y0, Y1
	VFMADD213PD Y10, Y0, Y1
	VFMADD213PD Y11, Y0, Y1
	VFMADD213PD Y12, Y0, Y1
	VFMADD213PD Y13, Y0, Y1
	VFMADD213PD Y14, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y15, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y15, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y15, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y15, Y0, Y1
	VFMADD213PD Y14, Y1, Y0
	VPADDD      120(SI), X2, X2
	VPMOVZXDQ   X2, Y2
	VPSLLQ      $52, Y2, Y2
	VMULPD      Y2, Y0, Y0
	VMOVUPD     Y0, (DI)(AX*8)
	ADDQ        $4, AX
	JMP         quads

done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func softmaxShift(x []float64, n int, scale float64)
//
// Each v of every n-wide row of x becomes v·scale − max, as softmaxShiftGo,
// one row at a time while it sits in L1: a first pass takes max, a second
// recomputes each v·scale (the same product) and stores it minus max. The
// maximum runs in two four-lane accumulators over eight columns at a time,
// then one quad, which are then folded into one lane, then the last n mod 4
// columns. VMAXPD and VMAXSD with the running maximum as second source
// return it unless v is greater, a NaN v included, as the Go loop's branch;
// no accumulator holds a NaN, so the fold's order changes the maximum only
// where +0 and −0 tie, and v − (±0) then differs only for v = −0, whose exp
// is 1 either way. Y15 is scale, Y14 −Inf, Y1 and Y2 the accumulators; DI
// is the row, R8 the end of x, CX n, BX n rounded down to 8, DX to 4.
TEXT ·softmaxShift(SB), NOSPLIT, $0-40
	PICK(·softmaxShiftGo)
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), R8
	MOVQ         n+24(FP), CX
	VBROADCASTSD scale+32(FP), Y15
	LEAQ         (DI)(R8*8), R8
	MOVQ         CX, BX
	ANDQ         $~7, BX
	MOVQ         CX, DX
	ANDQ         $~3, DX
	MOVQ         $0xfff0000000000000, R9
	VMOVQ        R9, X14
	VBROADCASTSD X14, Y14

row:
	CMPQ    DI, R8
	JAE     done
	VMOVAPD Y14, Y1
	VMOVAPD Y14, Y2
	XORQ    AX, AX

max8:
	CMPQ   AX, BX
	JAE    max4
	VMULPD (DI)(AX*8), Y15, Y3
	VMULPD 32(DI)(AX*8), Y15, Y4
	VMAXPD Y1, Y3, Y1
	VMAXPD Y2, Y4, Y2
	ADDQ   $8, AX
	JMP    max8

max4:
	CMPQ   AX, DX
	JAE    fold
	VMULPD (DI)(AX*8), Y15, Y3
	VMAXPD Y1, Y3, Y1
	ADDQ   $4, AX

fold:
	VMAXPD       Y2, Y1, Y1
	VEXTRACTF128 $1, Y1, X2
	VMAXPD       X2, X1, X1
	VPERMILPD    $1, X1, X2
	VMAXSD       X2, X1, X1

max1:
	CMPQ   AX, CX
	JAE    shift
	VMULSD (DI)(AX*8), X15, X3
	VMAXSD X1, X3, X1
	INCQ   AX
	JMP    max1

shift:
	VBROADCASTSD X1, Y1
	XORQ         AX, AX

shift4:
	CMPQ    AX, DX
	JAE     shift1
	VMULPD  (DI)(AX*8), Y15, Y3
	VSUBPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     shift4

shift1:
	CMPQ   AX, CX
	JAE    next
	VMULSD (DI)(AX*8), X15, X3
	VSUBSD X1, X3, X3
	VMOVSD X3, (DI)(AX*8)
	INCQ   AX
	JMP    shift1

next:
	LEAQ (DI)(CX*8), DI
	JMP  row

done:
	VZEROUPPER
	RET

// func softmaxNorm(x []float64, n int)
//
// Every n-wide row of x times 1/sum, as softmaxNormGo: each sum starts at +0
// and adds the row's elements in ascending column order, one serial chain,
// so four rows' chains run side by side in the low lanes of X0..X3 (R8..R11
// the rows), then the rows left over one at a time in X0. 1/sum is broadcast
// and the row multiplied by it four columns at a time, then one. R12 is the
// end of x, CX n, BX n rounded down to 4, DX the row stride in bytes, SI the
// row after the four, X15 1.
TEXT ·softmaxNorm(SB), NOSPLIT, $0-32
	PICK(·softmaxNormGo)
	MOVQ x_base+0(FP), R8
	MOVQ x_len+8(FP), R12
	MOVQ n+24(FP), CX
	LEAQ (R8)(R12*8), R12
	MOVQ CX, BX
	ANDQ $~3, BX
	LEAQ (CX*8), DX
	MOVQ $0x3ff0000000000000, R13
	VMOVQ R13, X15

group:
	LEAQ   (R8)(DX*4), SI
	CMPQ   SI, R12
	JA     rest
	LEAQ   (R8)(DX*1), R9
	LEAQ   (R9)(DX*1), R10
	LEAQ   (R10)(DX*1), R11
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	XORQ   AX, AX

sum4:
	CMPQ   AX, CX
	JAE    inv4
	VADDSD (R8)(AX*8), X0, X0
	VADDSD (R9)(AX*8), X1, X1
	VADDSD (R10)(AX*8), X2, X2
	VADDSD (R11)(AX*8), X3, X3
	INCQ   AX
	JMP    sum4

inv4:
	VDIVSD       X0, X15, X0
	VDIVSD       X1, X15, X1
	VDIVSD       X2, X15, X2
	VDIVSD       X3, X15, X3
	VBROADCASTSD X0, Y0
	VBROADCASTSD X1, Y1
	VBROADCASTSD X2, Y2
	VBROADCASTSD X3, Y3
	XORQ         AX, AX

mul4:
	CMPQ    AX, BX
	JAE     mul4last
	VMULPD  (R8)(AX*8), Y0, Y4
	VMOVUPD Y4, (R8)(AX*8)
	VMULPD  (R9)(AX*8), Y1, Y5
	VMOVUPD Y5, (R9)(AX*8)
	VMULPD  (R10)(AX*8), Y2, Y6
	VMOVUPD Y6, (R10)(AX*8)
	VMULPD  (R11)(AX*8), Y3, Y7
	VMOVUPD Y7, (R11)(AX*8)
	ADDQ    $4, AX
	JMP     mul4

mul4last:
	CMPQ   AX, CX
	JAE    next4
	VMULSD (R8)(AX*8), X0, X4
	VMOVSD X4, (R8)(AX*8)
	VMULSD (R9)(AX*8), X1, X5
	VMOVSD X5, (R9)(AX*8)
	VMULSD (R10)(AX*8), X2, X6
	VMOVSD X6, (R10)(AX*8)
	VMULSD (R11)(AX*8), X3, X7
	VMOVSD X7, (R11)(AX*8)
	INCQ   AX
	JMP    mul4last

next4:
	MOVQ SI, R8
	JMP  group

rest:
	CMPQ   R8, R12
	JAE    done
	VXORPD X0, X0, X0
	XORQ   AX, AX

sum1:
	CMPQ   AX, CX
	JAE    inv1
	VADDSD (R8)(AX*8), X0, X0
	INCQ   AX
	JMP    sum1

inv1:
	VDIVSD       X0, X15, X0
	VBROADCASTSD X0, Y0
	XORQ         AX, AX

mul1:
	CMPQ    AX, BX
	JAE     mul1last
	VMULPD  (R8)(AX*8), Y0, Y4
	VMOVUPD Y4, (R8)(AX*8)
	ADDQ    $4, AX
	JMP     mul1

mul1last:
	CMPQ   AX, CX
	JAE    next1
	VMULSD (R8)(AX*8), X0, X4
	VMOVSD X4, (R8)(AX*8)
	INCQ   AX
	JMP    mul1last

next1:
	ADDQ DX, R8
	JMP  rest

done:
	VZEROUPPER
	RET
