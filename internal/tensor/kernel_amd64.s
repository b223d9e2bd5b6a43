//go:build amd64

#include "textflag.h"

// AVX2 kernels behind kernel_amd64.go. Each matches its portable twin in
// kernel_generic.go bit for bit: multiplies and adds stay separate
// instructions (VMULPS then VADDPS, never FMA), so every lane rounds exactly
// as the scalar ops do, and every output element receives its addends in
// strictly increasing k order.

// func macPanelAVX2(dst, x, b *float32, n, kc, ld int)
//
// dst[j] += x[k]·b[k·ld+j] for j < n, k < kc (kc ≥ 1), skipping x[k] = ±0.
// Columns go in blocks of 32, then 8, then 1; a block keeps its partial sums
// in registers across the whole k-panel, so dst is loaded and stored once
// per block instead of once per k.
TEXT ·macPanelAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ kc+32(FP), R8
	MOVQ ld+40(FP), R9
	SHLQ $2, R9 // row stride in bytes

p32:
	CMPQ    CX, $32
	JLT     p8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    SI, R10 // &x[k]
	MOVQ    DX, R11 // &b[k·ld + j0]
	MOVQ    R8, R12

p32k:
	MOVL         (R10), AX
	ADDL         AX, AX    // drops the sign bit: ZF set iff x[k] = ±0
	JZ           p32skip
	VBROADCASTSS (R10), Y4
	VMULPS       (R11), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       32(R11), Y4, Y6
	VADDPS       Y6, Y1, Y1
	VMULPS       64(R11), Y4, Y7
	VADDPS       Y7, Y2, Y2
	VMULPS       96(R11), Y4, Y8
	VADDPS       Y8, Y3, Y3

p32skip:
	ADDQ    $4, R10
	ADDQ    R9, R11
	DECQ    R12
	JNZ     p32k
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $32, CX
	JMP     p32

p8:
	CMPQ    CX, $8
	JLT     p1
	VMOVUPS (DI), Y0
	MOVQ    SI, R10
	MOVQ    DX, R11
	MOVQ    R8, R12

p8k:
	MOVL         (R10), AX
	ADDL         AX, AX
	JZ           p8skip
	VBROADCASTSS (R10), Y4
	VMULPS       (R11), Y4, Y5
	VADDPS       Y5, Y0, Y0

p8skip:
	ADDQ    $4, R10
	ADDQ    R9, R11
	DECQ    R12
	JNZ     p8k
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $8, CX
	JMP     p8

p1:
	TESTQ  CX, CX
	JZ     pdone
	VMOVSS (DI), X0
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   R8, R12

p1k:
	MOVL   (R10), AX
	ADDL   AX, AX
	JZ     p1skip
	VMOVSS (R10), X4
	VMULSS (R11), X4, X5
	VADDSS X5, X0, X0

p1skip:
	ADDQ   $4, R10
	ADDQ   R9, R11
	DECQ   R12
	JNZ    p1k
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, DX
	DECQ   CX
	JMP    p1

pdone:
	VZEROUPPER
	RET

// func macAbsPanelAVX2(z, load, x, w, aw *float32, n, kc, ld int)
//
// One pass of macPanelAVX2 over two matrices of one shape:
// z[j] += x[k]·w[k·ld+j] and load[j] += |x[k]|·aw[k·ld+j], with |x[k]|
// taken from the broadcast by clearing its sign bit. Zero inputs are
// skipped for both sums.
TEXT ·macAbsPanelAVX2(SB), NOSPLIT, $0-64
	MOVQ         z+0(FP), DI
	MOVQ         load+8(FP), BX
	MOVQ         x+16(FP), SI
	MOVQ         w+24(FP), DX
	MOVQ         aw+32(FP), R13
	MOVQ         n+40(FP), CX
	MOVQ         kc+48(FP), R8
	MOVQ         ld+56(FP), R9
	SHLQ         $2, R9
	MOVL         $0x7fffffff, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15 // sign-clearing mask

f32:
	CMPQ    CX, $32
	JLT     f8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS (BX), Y4
	VMOVUPS 32(BX), Y5
	VMOVUPS 64(BX), Y6
	VMOVUPS 96(BX), Y7
	MOVQ    SI, R10
	XORQ    R11, R11 // byte offset of row k in both panels
	MOVQ    R8, R12

f32k:
	MOVL         (R10), AX
	ADDL         AX, AX
	JZ           f32skip
	VBROADCASTSS (R10), Y8
	VANDPS       Y15, Y8, Y9
	VMULPS       (DX)(R11*1), Y8, Y10
	VADDPS       Y10, Y0, Y0
	VMULPS       (R13)(R11*1), Y9, Y11
	VADDPS       Y11, Y4, Y4
	VMULPS       32(DX)(R11*1), Y8, Y12
	VADDPS       Y12, Y1, Y1
	VMULPS       32(R13)(R11*1), Y9, Y13
	VADDPS       Y13, Y5, Y5
	VMULPS       64(DX)(R11*1), Y8, Y10
	VADDPS       Y10, Y2, Y2
	VMULPS       64(R13)(R11*1), Y9, Y11
	VADDPS       Y11, Y6, Y6
	VMULPS       96(DX)(R11*1), Y8, Y12
	VADDPS       Y12, Y3, Y3
	VMULPS       96(R13)(R11*1), Y9, Y13
	VADDPS       Y13, Y7, Y7

f32skip:
	ADDQ    $4, R10
	ADDQ    R9, R11
	DECQ    R12
	JNZ     f32k
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, (BX)
	VMOVUPS Y5, 32(BX)
	VMOVUPS Y6, 64(BX)
	VMOVUPS Y7, 96(BX)
	ADDQ    $128, DI
	ADDQ    $128, BX
	ADDQ    $128, DX
	ADDQ    $128, R13
	SUBQ    $32, CX
	JMP     f32

f8:
	CMPQ    CX, $8
	JLT     f1
	VMOVUPS (DI), Y0
	VMOVUPS (BX), Y4
	MOVQ    SI, R10
	XORQ    R11, R11
	MOVQ    R8, R12

f8k:
	MOVL         (R10), AX
	ADDL         AX, AX
	JZ           f8skip
	VBROADCASTSS (R10), Y8
	VANDPS       Y15, Y8, Y9
	VMULPS       (DX)(R11*1), Y8, Y10
	VADDPS       Y10, Y0, Y0
	VMULPS       (R13)(R11*1), Y9, Y11
	VADDPS       Y11, Y4, Y4

f8skip:
	ADDQ    $4, R10
	ADDQ    R9, R11
	DECQ    R12
	JNZ     f8k
	VMOVUPS Y0, (DI)
	VMOVUPS Y4, (BX)
	ADDQ    $32, DI
	ADDQ    $32, BX
	ADDQ    $32, DX
	ADDQ    $32, R13
	SUBQ    $8, CX
	JMP     f8

f1:
	TESTQ  CX, CX
	JZ     fdone
	VMOVSS (DI), X0
	VMOVSS (BX), X4
	MOVQ   SI, R10
	XORQ   R11, R11
	MOVQ   R8, R12

f1k:
	MOVL   (R10), AX
	ADDL   AX, AX
	JZ     f1skip
	VMOVSS (R10), X8
	VANDPS X15, X8, X9
	VMULSS (DX)(R11*1), X8, X10
	VADDSS X10, X0, X0
	VMULSS (R13)(R11*1), X9, X11
	VADDSS X11, X4, X4

f1skip:
	ADDQ   $4, R10
	ADDQ   R9, R11
	DECQ   R12
	JNZ    f1k
	VMOVSS X0, (DI)
	VMOVSS X4, (BX)
	ADDQ   $4, DI
	ADDQ   $4, BX
	ADDQ   $4, DX
	ADDQ   $4, R13
	DECQ   CX
	JMP    f1

fdone:
	VZEROUPPER
	RET

// func absMaxAVX2(v *float32, n int) float32
//
// max_i |v[i]| for a positive multiple-of-8 n, starting from +0. Each lane
// keeps (|x| > mx) ? |x| : mx — VMAXPS with |x| as its first source — so a
// NaN never replaces the running maximum, exactly as the scalar x > mx
// skips it. The lanes then hold only non-NaN values ≥ +0, for which the
// horizontal max is order-free.
TEXT ·absMaxAVX2(SB), NOSPLIT, $0-20
	MOVQ         v+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVL         $0x7fffffff, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	VXORPS       Y0, Y0, Y0

am8:
	VANDPS (SI), Y15, Y1
	VMAXPS Y0, Y1, Y0
	ADDQ   $32, SI
	SUBQ   $8, CX
	JNZ    am8

	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0x4e, X0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0xb1, X0, X1
	VMAXPS       X1, X0, X0
	VMOVSS       X0, ret+16(FP)
	VZEROUPPER
	RET

// func quantizeAVX2(dst, src *float32, n int, scale, half, inv float32)
//
// dst[k] = round(clamp(src[k]/scale, −1, 1)·half)·inv for a positive
// multiple-of-8 n. The clamp is VMINPS(1, q) then VMAXPS(−1, ·) with q as
// the second source, so a NaN or −0 q passes through as the scalar
// comparisons pass it. Round-half-away-from-zero is computed in float64 as
// trunc(f + copysign(0.49999999999999994, f)): the constant is the largest
// float64 below ½, so a tie n+½ sums to n+1−2⁻⁵⁴, which rounds up to n+1,
// while anything below the tie stays below n+1 — math.Round exactly.
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-36
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y10
	VBROADCASTSS half+28(FP), Y13
	VBROADCASTSS inv+32(FP), Y14
	MOVL         $0x3f800000, AX // +1.0
	VMOVD        AX, X11
	VPBROADCASTD X11, Y11
	MOVL         $0xbf800000, AX // −1.0
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12
	MOVQ         $0x3fdfffffffffffff, AX // 0.49999999999999994
	VMOVQ        AX, X9
	VPBROADCASTQ X9, Y9
	MOVQ         $1, AX
	SHLQ         $63, AX // float64 sign bit
	VMOVQ        AX, X8
	VPBROADCASTQ X8, Y8

q8:
	VMOVUPS      (SI), Y0
	VDIVPS       Y10, Y0, Y0 // q = v/scale
	VMINPS       Y0, Y11, Y0 // (1 < q) ? 1 : q
	VMAXPS       Y0, Y12, Y0 // (−1 > q) ? −1 : q
	VMULPS       Y13, Y0, Y0 // f = q·half
	VCVTPS2PD    X0, Y1
	VEXTRACTF128 $1, Y0, X2
	VCVTPS2PD    X2, Y2
	VANDPD       Y8, Y1, Y3
	VORPD        Y9, Y3, Y3
	VADDPD       Y3, Y1, Y1
	VROUNDPD     $3, Y1, Y1 // truncate
	VANDPD       Y8, Y2, Y4
	VORPD        Y9, Y4, Y4
	VADDPD       Y4, Y2, Y2
	VROUNDPD     $3, Y2, Y2
	VCVTPD2PSY   Y1, X1
	VCVTPD2PSY   Y2, X2
	VINSERTF128  $1, X2, Y1, Y1
	VMULPS       Y14, Y1, Y1
	VMOVUPS      Y1, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DI
	SUBQ         $8, CX
	JNZ          q8
	VZEROUPPER
	RET

// func adcAVX2(z *float32, n int, limit, bound, half, inv float32) bool
//
// The ADC conversion of ADCInPlace over a positive multiple-of-8 n, in
// place: z[k] = round(clamp(z[k], ±bound)/bound·half)·inv·bound, and the
// result reports whether any z[k] ≥ limit or z[k] ≤ −limit. The two
// compares are ordered (false on NaN), as the scalar ones are, and their
// lanes OR into one mask that is read once at the end. The clamp and the
// rounding are quantizeAVX2's: VMINPS(bound, v) then VMAXPS(−bound, ·)
// with v as the second source, so NaN and −0 pass through, and
// trunc(f + copysign(0.49999999999999994, f)) in float64 for math.Round.
TEXT ·adcAVX2(SB), NOSPLIT, $0-33
	MOVQ         z+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS limit+16(FP), Y10
	VBROADCASTSS bound+20(FP), Y11
	VBROADCASTSS half+24(FP), Y13
	VBROADCASTSS inv+28(FP), Y14
	MOVL         $0x80000000, AX // float32 sign bit
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	VXORPS       Y15, Y11, Y12   // −bound
	VXORPS       Y15, Y10, Y7    // −limit
	MOVQ         $0x3fdfffffffffffff, AX // 0.49999999999999994
	VMOVQ        AX, X9
	VPBROADCASTQ X9, Y9
	MOVQ         $1, AX
	SHLQ         $63, AX         // float64 sign bit
	VMOVQ        AX, X8
	VPBROADCASTQ X8, Y8
	VXORPS       Y6, Y6, Y6      // saturation lanes

a8:
	VMOVUPS      (DI), Y0
	VCMPPS       $0x0d, Y10, Y0, Y1 // v ≥ limit
	VCMPPS       $0x02, Y7, Y0, Y2  // v ≤ −limit
	VORPS        Y1, Y6, Y6
	VORPS        Y2, Y6, Y6
	VMINPS       Y0, Y11, Y0        // (bound < v) ? bound : v
	VMAXPS       Y0, Y12, Y0        // (−bound > v) ? −bound : v
	VDIVPS       Y11, Y0, Y0        // v/bound
	VMULPS       Y13, Y0, Y0        // f = v/bound·half
	VCVTPS2PD    X0, Y1
	VEXTRACTF128 $1, Y0, X2
	VCVTPS2PD    X2, Y2
	VANDPD       Y8, Y1, Y3
	VORPD        Y9, Y3, Y3
	VADDPD       Y3, Y1, Y1
	VROUNDPD     $3, Y1, Y1         // truncate
	VANDPD       Y8, Y2, Y4
	VORPD        Y9, Y4, Y4
	VADDPD       Y4, Y2, Y2
	VROUNDPD     $3, Y2, Y2
	VCVTPD2PSY   Y1, X1
	VCVTPD2PSY   Y2, X2
	VINSERTF128  $1, X2, Y1, Y1
	VMULPS       Y14, Y1, Y1        // ·inv
	VMULPS       Y11, Y1, Y1        // ·bound
	VMOVUPS      Y1, (DI)
	ADDQ         $32, DI
	SUBQ         $8, CX
	JNZ          a8
	VMOVMSKPS    Y6, AX
	TESTL        AX, AX
	SETNE        ret+32(FP)
	VZEROUPPER
	RET

// func irDropAVX2(z, load *float32, n int, drop, invRows float32)
//
// z[k] *= 1 − min(0.9, (drop·load[k])·invRows) over a positive multiple-of-8
// n. The min is VMINPS(0.9, att) with att as the second source, which is
// the scalar (att > 0.9) ? 0.9 : att, NaN included.
TEXT ·irDropAVX2(SB), NOSPLIT, $0-32
	MOVQ         z+0(FP), DI
	MOVQ         load+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS drop+24(FP), Y10
	VBROADCASTSS invRows+28(FP), Y11
	MOVL         $0x3f666666, AX // float32(0.9)
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12
	MOVL         $0x3f800000, AX // 1
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13

i8:
	VMULPS  (SI), Y10, Y0 // drop·load
	VMULPS  Y11, Y0, Y0   // ·invRows
	VMINPS  Y0, Y12, Y0   // (0.9 < att) ? 0.9 : att
	VSUBPS  Y0, Y13, Y0   // 1 − att
	VMOVUPS (DI), Y1
	VMULPS  Y0, Y1, Y1    // z·(1 − att)
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     i8
	VZEROUPPER
	RET

// func rescaleAddAVX2(dst, c, z *float32, n int, coef, alpha, drift float32)
//
// dst[k] += coef·(((alpha·c[k])·z[k])·drift) over a positive multiple-of-8
// n: four separate multiplies in the scalar order, then the add.
TEXT ·rescaleAddAVX2(SB), NOSPLIT, $0-44
	MOVQ         dst+0(FP), DI
	MOVQ         c+8(FP), SI
	MOVQ         z+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS coef+32(FP), Y10
	VBROADCASTSS alpha+36(FP), Y11
	VBROADCASTSS drift+40(FP), Y12

r8:
	VMULPS  (SI), Y11, Y0 // alpha·c
	VMULPS  (DX), Y0, Y0  // ·z
	VMULPS  Y12, Y0, Y0   // ·drift
	VMULPS  Y0, Y10, Y0   // coef·(…)
	VMOVUPS (DI), Y1
	VADDPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     r8
	VZEROUPPER
	RET
