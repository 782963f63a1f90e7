#include "textflag.h"

// AVX bodies of the kernels declared in kernels_amd64.go. Each kernel first
// reads useAVX and, when it is false, jumps to its Go loop (same name, suffix
// Go), which finds its arguments where the caller left them. Every packed
// instruction here (VMULPD, VADDPD, VSUBPD, VDIVPD, VSQRTPD) rounds each of
// its lanes exactly as the scalar instruction the Go loop compiles to, and
// each lane runs that loop's operations in that loop's order — no FMA where
// the Go loop has none (only exp4, copying math.Exp's assembly, fuses), no
// reassociation — so results are the Go loops' bit for bit (a NaN's payload
// aside: which of two NaN operands an add keeps depends on operand order,
// which Go does not fix). A length that is not a multiple of the lane count
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

// AXPY4 sets o[j] = o[j] + a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j], added
// left to right, for j < CX, with o at DI, b0..b3 at R8..R11 and a0..a3
// broadcast in Y0..Y3: four j per pass, then one. Uses AX, BX and Y4..Y8;
// the arguments name its labels.
#define AXPY4(quads, last, done) \
	XORQ AX, AX; \
	MOVQ CX, BX; \
	ANDQ $~3, BX; \
quads: \
	CMPQ    AX, BX; \
	JAE     last; \
	VMOVUPD (DI)(AX*8), Y4; \
	VMULPD  (R8)(AX*8), Y0, Y5; \
	VADDPD  Y5, Y4, Y4; \
	VMULPD  (R9)(AX*8), Y1, Y6; \
	VADDPD  Y6, Y4, Y4; \
	VMULPD  (R10)(AX*8), Y2, Y7; \
	VADDPD  Y7, Y4, Y4; \
	VMULPD  (R11)(AX*8), Y3, Y8; \
	VADDPD  Y8, Y4, Y4; \
	VMOVUPD Y4, (DI)(AX*8); \
	ADDQ    $4, AX; \
	JMP     quads; \
last: \
	CMPQ   AX, CX; \
	JAE    done; \
	VMOVSD (DI)(AX*8), X4; \
	VMULSD (R8)(AX*8), X0, X5; \
	VADDSD X5, X4, X4; \
	VMULSD (R9)(AX*8), X1, X6; \
	VADDSD X6, X4, X4; \
	VMULSD (R10)(AX*8), X2, X7; \
	VADDSD X7, X4, X4; \
	VMULSD (R11)(AX*8), X3, X8; \
	VADDSD X8, X4, X4; \
	VMOVSD X4, (DI)(AX*8); \
	INCQ   AX; \
	JMP    last; \
done:

// AXPY1 sets o[j] = o[j] + a·b[j] for j < CX, with o at DI, b at R8 and a
// broadcast in Y0. Uses AX, BX, Y4 and Y5; the arguments name its labels.
#define AXPY1(quads, last, done) \
	XORQ AX, AX; \
	MOVQ CX, BX; \
	ANDQ $~3, BX; \
quads: \
	CMPQ    AX, BX; \
	JAE     last; \
	VMOVUPD (DI)(AX*8), Y4; \
	VMULPD  (R8)(AX*8), Y0, Y5; \
	VADDPD  Y5, Y4, Y4; \
	VMOVUPD Y4, (DI)(AX*8); \
	ADDQ    $4, AX; \
	JMP     quads; \
last: \
	CMPQ   AX, CX; \
	JAE    done; \
	VMOVSD (DI)(AX*8), X4; \
	VMULSD (R8)(AX*8), X0, X5; \
	VADDSD X5, X4, X4; \
	VMOVSD X4, (DI)(AX*8); \
	INCQ   AX; \
	JMP    last; \
done:

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

// func axpy4(o []float64, a0, a1, a2, a3 float64, b []float64)
TEXT ·axpy4(SB), NOSPLIT, $0-80
	PICK(·axpy4Go)
	MOVQ         o_base+0(FP), DI
	MOVQ         o_len+8(FP), CX
	VBROADCASTSD a0+24(FP), Y0
	VBROADCASTSD a1+32(FP), Y1
	VBROADCASTSD a2+40(FP), Y2
	VBROADCASTSD a3+48(FP), Y3
	MOVQ         b_base+56(FP), R8
	LEAQ         (R8)(CX*8), R9
	LEAQ         (R9)(CX*8), R10
	LEAQ         (R10)(CX*8), R11
	AXPY4(quads, last, done)
	VZEROUPPER
	RET

// func axpy1(o []float64, a float64, b []float64)
TEXT ·axpy1(SB), NOSPLIT, $0-56
	PICK(·axpy1Go)
	MOVQ         o_base+0(FP), DI
	MOVQ         o_len+8(FP), CX
	VBROADCASTSD a+24(FP), Y0
	MOVQ         b_base+32(FP), R8
	AXPY1(quads, last, done)
	VZEROUPPER
	RET

// func matMulRow(o, a, b []float64)
//
// o = +0, then k four at a time through AXPY4 and the rest through AXPY1; row
// k of b starts at b + 8·k·len(o). SI walks a, DX counts the k left, R12 is
// the row stride in bytes.
TEXT ·matMulRow(SB), NOSPLIT, $0-72
	PICK(·matMulRowGo)
	MOVQ   o_base+0(FP), DI
	MOVQ   o_len+8(FP), CX
	MOVQ   a_base+24(FP), SI
	MOVQ   a_len+32(FP), DX
	MOVQ   b_base+48(FP), R8
	MOVQ   CX, R12
	SHLQ   $3, R12
	VXORPD Y4, Y4, Y4
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $~3, BX

zero4:
	CMPQ    AX, BX
	JAE     zero1
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     zero4

zero1:
	CMPQ   AX, CX
	JAE    k4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    zero1

k4:
	CMPQ         DX, $4
	JLT          k1
	VBROADCASTSD (SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	LEAQ         (R8)(R12*1), R9
	LEAQ         (R9)(R12*1), R10
	LEAQ         (R10)(R12*1), R11
	AXPY4(quads4, last4, done4)
	ADDQ         $32, SI
	LEAQ         (R11)(R12*1), R8
	SUBQ         $4, DX
	JMP          k4

k1:
	TESTQ        DX, DX
	JEQ          ret
	VBROADCASTSD (SI), Y0
	AXPY1(quads1, last1, done1)
	ADDQ         $8, SI
	ADDQ         R12, R8
	DECQ         DX
	JMP          k1

ret:
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
