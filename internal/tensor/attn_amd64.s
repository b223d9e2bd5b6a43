//go:build amd64

#include "textflag.h"

// Packed kernels of the digital attention step and the SiLU, behind
// attn_amd64.go. Each matches its portable twin in attn_generic.go bit for
// bit. The float32 sums keep the scalar association: a lane adds its
// products one at a time in the scalar order (VMULPS then VADDPS, never an
// FMA), so it rounds exactly as the scalar loop does.
//
// EXP4 is math.Exp on four float64 lanes. It replays, op for op, the FMA
// path (label avxfma) of the standard library's amd64 archExp
// (src/math/exp_amd64.s), the path math.Exp takes on a CPU with AVX and
// FMA: the same constants, the exponent k = round(x·log2e) by the MXCSR
// rounding (VCVTPD2DQ, as CVTSD2SL), the two fused reduction steps
// r = x − k·ln2U − k·ln2L and r·1/16, the seven Taylor FMAs, the first
// multiply, the squarings y·(y+2) and the last one fused with +1, then the
// scaling by 2^k built from the biased exponent bits. Every lane must lie in
// [−708, 709], where archExp takes none of its special branches (NaN, ±Inf,
// overflow, the denormal ldexp): callers check the range first and send
// other lanes to math.Exp. X holds the input and the result; K and P are
// scratch YMM registers and I the XMM register under K.
#define EXP4(X, K, P, I) \
	VMULPD       expLog2e<>(SB), X, K; \
	VCVTPD2DQY   K, I; \
	VCVTDQ2PD    I, K; \
	VFNMADD231PD expLn2U<>(SB), K, X; \
	VFNMADD231PD expLn2L<>(SB), K, X; \
	VMULPD       expSixteenth<>(SB), X, X; \
	VMOVUPD      expC64<>(SB), P; \
	VFMADD213PD  expC56<>(SB), X, P; \
	VFMADD213PD  expC48<>(SB), X, P; \
	VFMADD213PD  expC40<>(SB), X, P; \
	VFMADD213PD  expC32<>(SB), X, P; \
	VFMADD213PD  expC24<>(SB), X, P; \
	VFMADD213PD  expHalf<>(SB), X, P; \
	VFMADD213PD  expOne<>(SB), X, P; \
	VMULPD       P, X, X; \
	VADDPD       expTwo<>(SB), X, P; \
	VMULPD       P, X, X; \
	VADDPD       expTwo<>(SB), X, P; \
	VMULPD       P, X, X; \
	VADDPD       expTwo<>(SB), X, P; \
	VMULPD       P, X, X; \
	VADDPD       expTwo<>(SB), X, P; \
	VFMADD213PD  expOne<>(SB), P, X; \
	VPADDD       expBias<>(SB), I, I; \
	VPMOVZXDQ    I, K; \
	VPSLLQ       $52, K, K; \
	VMULPD       K, X, X

// INRANGE sets AX to the VMOVMSKPD mask of the lanes of X inside
// [−708, 709]; the compares are ordered, so a NaN lane is out. M and N are
// scratch YMM registers.
#define INRANGE(X, M, N) \
	VCMPPD    $0x0d, expLo<>(SB), X, M; \
	VCMPPD    $0x02, expHi<>(SB), X, N; \
	VANDPD    N, M, M; \
	VMOVMSKPD M, AX

#define REP4(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// archExp's constants, in its own decimal spelling.
REP4(expLog2e, $1.4426950408889634073599246810018920)
REP4(expLn2U, $0.69314718055966295651160180568695068359375)
REP4(expLn2L, $0.28235290563031577122588448175013436025525412068e-12)
REP4(expSixteenth, $0.0625)
REP4(expC64, $2.4801587301587301587e-5)
REP4(expC56, $1.9841269841269841270e-4)
REP4(expC48, $1.3888888888888888889e-3)
REP4(expC40, $8.3333333333333333333e-3)
REP4(expC32, $4.1666666666666666667e-2)
REP4(expC24, $1.6666666666666666667e-1)
REP4(expHalf, $0.5)
REP4(expOne, $1.0)
REP4(expTwo, $2.0)

// The packed range and the float64 sign bit.
REP4(expLo, $-708.0)
REP4(expHi, $709.0)
REP4(expSign, $0x8000000000000000)

// The exponent bias, as four int32 lanes.
DATA  expBias<>+0(SB)/4, $1023
DATA  expBias<>+4(SB)/4, $1023
DATA  expBias<>+8(SB)/4, $1023
DATA  expBias<>+12(SB)/4, $1023
GLOBL expBias<>(SB), RODATA|NOPTR, $16

// Lane masks for a tail of r < 8 positions: the 8 dwords at byte offset
// 4·(8−r) have their first r lanes set.
DATA  tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA  tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA  tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA  tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA  tailMask<>+32(SB)/8, $0
DATA  tailMask<>+40(SB)/8, $0
DATA  tailMask<>+48(SB)/8, $0
DATA  tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// func expAVX2(dst, src *float64, n int) int
//
// dst[i] = math.Exp(src[i]) in blocks of four, from the start, until a
// block holds an input outside [−708, 709] or fewer than four remain. It
// returns the number of elements written, a multiple of 4.
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ BX, BX

e4:
	LEAQ    4(BX), DX
	CMPQ    DX, CX
	JGT     edone
	VMOVUPD (SI)(BX*8), Y0
	INRANGE(Y0, Y1, Y2)
	CMPL    AX, $15
	JNE     edone
	EXP4(Y0, Y1, Y2, X3)
	VMOVUPD Y0, (DI)(BX*8)
	MOVQ    DX, BX
	JMP     e4

edone:
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET

// func siluAVX2(v *float32, n int) int
//
// v[i] = float32(float64(v[i]) / (1 + math.Exp(−float64(v[i])))) in blocks
// of four, from the start, until a block holds an input whose negation
// lies outside [−708, 709] or fewer than four remain; it returns the
// number of elements written. The widening, the negation (a sign flip) and
// the narrowing are exact or correctly rounded as the scalar conversions
// are, and VDIVPD is a correctly rounded divide.
TEXT ·siluAVX2(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), SI
	MOVQ n+8(FP), CX
	XORQ BX, BX

s4:
	LEAQ       4(BX), DX
	CMPQ       DX, CX
	JGT        sdone
	VCVTPS2PD  (SI)(BX*4), Y0        // x
	VXORPD     expSign<>(SB), Y0, Y4 // −x
	INRANGE(Y4, Y1, Y2)
	CMPL       AX, $15
	JNE        sdone
	EXP4(Y4, Y1, Y2, X3)
	VADDPD     expOne<>(SB), Y4, Y4  // 1 + e
	VDIVPD     Y4, Y0, Y0            // x / (1 + e)
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (SI)(BX*4)
	MOVQ       DX, BX
	JMP        s4

sdone:
	MOVQ BX, ret+16(FP)
	VZEROUPPER
	RET

// func attnSoftmaxAVX2(s *float32, n, ld, rows int, mx *float32, sums *float64, h, i int, sum float64) (int, int, float64)
//
// The softmax numerators of score rows h.. in place: row r holds n scores
// at s[r·ld:], and s = float32(math.Exp(float64(s−mx[r]))). Each written
// value is widened back and added to the row's float64 sum one lane at a
// time in ascending position, the scalar order, and at the row's end
// sums[r] = sum. Row h resumes at position i with the partial
// sum given. Blocks are four positions; the last r < 4 positions of a row
// load and store through a lane mask and add only their own lanes. The
// kernel stops at the first block whose differences leave [−708, 709] and
// returns its row, position and partial sum; having finished every row it
// returns rows, 0, 0. The serial sums of different rows do not depend on
// each other, so the rows' exp chains overlap.
TEXT ·attnSoftmaxAVX2(SB), NOSPLIT, $0-96
	MOVQ   s+0(FP), SI
	MOVQ   n+8(FP), CX
	MOVQ   ld+16(FP), R8
	MOVQ   rows+24(FP), R9
	MOVQ   mx+32(FP), R10
	MOVQ   sums+40(FP), R11
	MOVQ   h+48(FP), R12
	MOVQ   i+56(FP), BX
	VMOVSD sum+64(FP), X6
	LEAQ   tailMask<>(SB), R13

xrow:
	CMPQ         R12, R9
	JGE          xend
	MOVQ         R12, DI
	IMULQ        R8, DI
	LEAQ         (SI)(DI*4), DI // &s[h·ld]
	VBROADCASTSS (R10)(R12*4), X7

x4:
	LEAQ         4(BX), DX
	CMPQ         DX, CX
	JGT          xtail
	VMOVUPS      (DI)(BX*4), X0
	VSUBPS       X7, X0, X0 // s − mx in float32
	VCVTPS2PD    X0, Y0
	INRANGE(Y0, Y1, Y2)
	CMPL         AX, $15
	JNE          xstop
	EXP4(Y0, Y1, Y2, X3)
	VCVTPD2PSY   Y0, X0
	VMOVUPS      X0, (DI)(BX*4)
	VCVTPS2PD    X0, Y0
	VADDSD       X0, X6, X6
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X6, X6
	VEXTRACTF128 $1, Y0, X0
	VADDSD       X0, X6, X6
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X6, X6
	MOVQ         DX, BX
	JMP          x4

xtail:
	MOVQ         CX, DX
	SUBQ         BX, DX // r = n − i < 4
	JZ           xfin
	MOVQ         $8, AX
	SUBQ         DX, AX
	VMOVUPS      (R13)(AX*4), X5 // first r lanes on
	VMOVMSKPS    X5, R14
	VMASKMOVPS   (DI)(BX*4), X5, X0
	VSUBPS       X7, X0, X0
	VCVTPS2PD    X0, Y0
	INRANGE(Y0, Y1, Y2)
	ANDL         R14, AX
	CMPL         AX, R14
	JNE          xstop
	EXP4(Y0, Y1, Y2, X3)
	VCVTPD2PSY   Y0, X0
	VMASKMOVPS   X0, X5, (DI)(BX*4)
	VCVTPS2PD    X0, Y0
	VADDSD       X0, X6, X6
	CMPQ         DX, $2
	JLT          xfin
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X6, X6
	CMPQ         DX, $3
	JLT          xfin
	VEXTRACTF128 $1, Y0, X0
	VADDSD       X0, X6, X6

xfin:
	VMOVSD X6, (R11)(R12*8)
	INCQ   R12
	XORQ   BX, BX
	VXORPD X6, X6, X6
	JMP    xrow

xend:
	XORQ   BX, BX
	VXORPD X6, X6, X6

xstop:
	MOVQ   R12, ret+72(FP)
	MOVQ   BX, ret1+80(FP)
	VMOVSD X6, ret2+88(FP)
	VZEROUPPER
	RET

// func scoresAVX2(d0, d1, q0, q1, k *float32, n, dh, ld int, scale, mx0, mx1 float32) (float32, float32)
//
// The scaled dot products of one query head (q1 == nil) or two sharing one
// key head, against n ≥ 1 key positions stored position-minor: key column c
// of position t at k[c·ld+t]. Lanes are eight positions; each lane sums
// q[c]·k[c·ld+t] over ascending c from +0, then multiplies by scale, and
// the two heads of a pair share every key load. The last r < 8 positions
// load and store through a lane mask, and their unused lanes are set to
// −Inf before the max. The max of each head starts from mx and takes
// VMAXPS with the running max as its second source, which keeps the
// running max when a score is NaN, as `if s > mx` does.
TEXT ·scoresAVX2(SB), NOSPLIT, $0-88
	MOVQ         d0+0(FP), DI
	MOVQ         d1+8(FP), R8
	MOVQ         q0+16(FP), SI
	MOVQ         q1+24(FP), R9
	MOVQ         k+32(FP), DX
	MOVQ         n+40(FP), CX
	MOVQ         dh+48(FP), R13
	MOVQ         ld+56(FP), R14
	SHLQ         $2, R14 // column stride in bytes
	VBROADCASTSS scale+64(FP), Y15
	VBROADCASTSS mx0+68(FP), Y13
	VBROADCASTSS mx1+72(FP), Y14
	MOVL         $0xff800000, AX // −Inf
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12
	VPCMPEQD     Y11, Y11, Y11   // all lanes on

	// Y11 is the lane mask of the current block, all on but in the tail.
sblock:
	CMPQ    CX, $8
	JGE     sfull
	LEAQ    tailMask<>(SB), AX
	MOVQ    $8, BX
	SUBQ    CX, BX
	VMOVUPS (AX)(BX*4), Y11

sfull:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   SI, R10
	MOVQ   R9, R11
	MOVQ   DX, R12
	MOVQ   R13, BX
	TESTQ  R9, R9
	JZ     sone

spair:
	VMASKMOVPS   (R12), Y11, Y2
	VBROADCASTSS (R10), Y3
	VMULPS       Y2, Y3, Y3
	VADDPS       Y3, Y0, Y0
	VBROADCASTSS (R11), Y4
	VMULPS       Y2, Y4, Y4
	VADDPS       Y4, Y1, Y1
	ADDQ         $4, R10
	ADDQ         $4, R11
	ADDQ         R14, R12
	DECQ         BX
	JNZ          spair
	VMULPS       Y15, Y1, Y1
	VMASKMOVPS   Y1, Y11, (R8)
	VBLENDVPS    Y11, Y1, Y12, Y1
	VMAXPS       Y14, Y1, Y14
	JMP          sstore

sone:
	VMASKMOVPS   (R12), Y11, Y2
	VBROADCASTSS (R10), Y3
	VMULPS       Y2, Y3, Y3
	VADDPS       Y3, Y0, Y0
	ADDQ         $4, R10
	ADDQ         R14, R12
	DECQ         BX
	JNZ          sone

sstore:
	VMULPS     Y15, Y0, Y0
	VMASKMOVPS Y0, Y11, (DI)
	VBLENDVPS  Y11, Y0, Y12, Y0
	VMAXPS     Y13, Y0, Y13
	ADDQ       $32, DI
	ADDQ       $32, R8
	ADDQ       $32, DX
	SUBQ       $8, CX
	JG         sblock

	// Fold each head's eight lane maxima with the same ordered compare.
	VEXTRACTF128 $1, Y13, X0
	VMAXPS       X13, X0, X13
	VMOVHLPS     X13, X13, X0
	VMAXPS       X13, X0, X13
	VPSHUFD      $1, X13, X0
	VMAXSS       X13, X0, X13
	VMOVSS       X13, ret+80(FP)
	VEXTRACTF128 $1, Y14, X0
	VMAXPS       X14, X0, X14
	VMOVHLPS     X14, X14, X0
	VMAXPS       X14, X0, X14
	VPSHUFD      $1, X14, X0
	VMAXSS       X14, X0, X14
	VMOVSS       X14, ret1+84(FP)
	VZEROUPPER
	RET

// func valuesAVX2(o0, o1, w0, w1, v *float32, n, dh, ld int, inv0, inv1 float32)
//
// The attention-weighted value sums of one head (w1 == nil) or two sharing
// one value head, over n ≥ 1 positions whose value rows (dh ≥ 1 columns)
// start ld floats apart: o[c] += float32(w[t]·inv)·v[t·ld+c] over ascending
// t. Lanes are columns, in blocks of 8, then 4, then 1; a block keeps its
// sums in registers across all positions, and the two heads of a pair
// share every value load. Each weight is normalized (w[t]·inv) where it is
// used.
TEXT ·valuesAVX2(SB), NOSPLIT, $0-72
	MOVQ         o0+0(FP), DI
	MOVQ         o1+8(FP), R8
	MOVQ         w0+16(FP), SI
	MOVQ         w1+24(FP), R9
	MOVQ         v+32(FP), DX
	MOVQ         n+40(FP), CX
	MOVQ         dh+48(FP), R13
	MOVQ         ld+56(FP), R14
	SHLQ         $2, R14 // row stride in bytes
	VBROADCASTSS inv0+64(FP), Y14
	VBROADCASTSS inv1+68(FP), Y15

v8:
	CMPQ    R13, $8
	JLT     v4
	VMOVUPS (DI), Y0
	MOVQ    SI, R10
	MOVQ    R9, R11
	MOVQ    DX, R12
	MOVQ    CX, BX
	TESTQ   R9, R9
	JZ      v8one
	VMOVUPS (R8), Y1

v8pair:
	VMOVUPS      (R12), Y2
	VMULSS       (R10), X14, X3
	VBROADCASTSS X3, Y3
	VMULPS       Y2, Y3, Y3
	VADDPS       Y3, Y0, Y0
	VMULSS       (R11), X15, X4
	VBROADCASTSS X4, Y4
	VMULPS       Y2, Y4, Y4
	VADDPS       Y4, Y1, Y1
	ADDQ         $4, R10
	ADDQ         $4, R11
	ADDQ         R14, R12
	DECQ         BX
	JNZ          v8pair
	VMOVUPS      Y1, (R8)
	ADDQ         $32, R8
	JMP          v8next

v8one:
	VMOVUPS      (R12), Y2
	VMULSS       (R10), X14, X3
	VBROADCASTSS X3, Y3
	VMULPS       Y2, Y3, Y3
	VADDPS       Y3, Y0, Y0
	ADDQ         $4, R10
	ADDQ         R14, R12
	DECQ         BX
	JNZ          v8one

v8next:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $8, R13
	JMP     v8

v4:
	CMPQ    R13, $4
	JLT     v1
	VMOVUPS (DI), X0
	MOVQ    SI, R10
	MOVQ    R9, R11
	MOVQ    DX, R12
	MOVQ    CX, BX
	TESTQ   R9, R9
	JZ      v4one
	VMOVUPS (R8), X1

v4pair:
	VMOVUPS      (R12), X2
	VMULSS       (R10), X14, X3
	VBROADCASTSS X3, X3
	VMULPS       X2, X3, X3
	VADDPS       X3, X0, X0
	VMULSS       (R11), X15, X4
	VBROADCASTSS X4, X4
	VMULPS       X2, X4, X4
	VADDPS       X4, X1, X1
	ADDQ         $4, R10
	ADDQ         $4, R11
	ADDQ         R14, R12
	DECQ         BX
	JNZ          v4pair
	VMOVUPS      X1, (R8)
	ADDQ         $16, R8
	JMP          v4next

v4one:
	VMOVUPS      (R12), X2
	VMULSS       (R10), X14, X3
	VBROADCASTSS X3, X3
	VMULPS       X2, X3, X3
	VADDPS       X3, X0, X0
	ADDQ         $4, R10
	ADDQ         R14, R12
	DECQ         BX
	JNZ          v4one

v4next:
	VMOVUPS X0, (DI)
	ADDQ    $16, DI
	ADDQ    $16, DX
	SUBQ    $4, R13

v1:
	TESTQ  R13, R13
	JZ     vdone
	VMOVSS (DI), X0
	MOVQ   SI, R10
	MOVQ   R9, R11
	MOVQ   DX, R12
	MOVQ   CX, BX
	TESTQ  R9, R9
	JZ     v1one
	VMOVSS (R8), X1

v1pair:
	VMOVSS (R12), X2
	VMULSS (R10), X14, X3
	VMULSS X2, X3, X3
	VADDSS X3, X0, X0
	VMULSS (R11), X15, X4
	VMULSS X2, X4, X4
	VADDSS X4, X1, X1
	ADDQ   $4, R10
	ADDQ   $4, R11
	ADDQ   R14, R12
	DECQ   BX
	JNZ    v1pair
	VMOVSS X1, (R8)
	ADDQ   $4, R8
	JMP    v1next

v1one:
	VMOVSS (R12), X2
	VMULSS (R10), X14, X3
	VMULSS X2, X3, X3
	VADDSS X3, X0, X0
	ADDQ   $4, R10
	ADDQ   R14, R12
	DECQ   BX
	JNZ    v1one

v1next:
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, DX
	DECQ   R13
	JMP    v1

vdone:
	VZEROUPPER
	RET
