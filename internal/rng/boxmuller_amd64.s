//go:build amd64

#include "textflag.h"

// Packed float64 constants, the same value in all four lanes. VEX-encoded
// memory operands need no alignment.
#define LANES4(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

LANES4(bmMant, 0x000FFFFFFFFFFFFF)
LANES4(bmHalf, 0x3FE0000000000000)     // 0.5
LANES4(bmOne, 0x3FF0000000000000)      // 1
LANES4(bmTwo, 0x4000000000000000)      // 2
LANES4(bmNegTwo, 0xC000000000000000)   // -2
LANES4(bmTwo52, 0x4330000000000000)    // 2^52
LANES4(bmKBias, 0x43300000000003FE)    // 2^52 + 1022
LANES4(bmSign, 0x8000000000000000)
LANES4(bmHSqrt2, 0x3FE6A09E667F3BCD)   // √2/2
LANES4(bmLn2Hi, 0x3FE62E42FEE00000)
LANES4(bmLn2Lo, 0x3DEA39EF35793C76)
LANES4(bmL1, 0x3FE5555555555593)
LANES4(bmL2, 0x3FD999999997FA04)
LANES4(bmL3, 0x3FD2492494229359)
LANES4(bmL4, 0x3FCC71C51D8E78AF)
LANES4(bmL5, 0x3FC7466496CB03DE)
LANES4(bmL6, 0x3FC39A09D078C69F)
LANES4(bmL7, 0x3FC2F112DF3E5244)
LANES4(bmTwoPi, 0x401921FB54442D18)    // float64(2π)
LANES4(bmFourOverPi, 0x3FF45F306DC9C883) // float64(4/π)
LANES4(bmPI4A, 0x3FE921FB40000000)
LANES4(bmPI4B, 0x3E64442D00000000)
LANES4(bmPI4C, 0x3CE8469898CC5170)
LANES4(bmSin0, 0x3DE5D8FD1FD19CCD)
LANES4(bmSin1, 0xBE5AE5E5A9291F5D)
LANES4(bmSin2, 0x3EC71DE3567D48A1)
LANES4(bmSin3, 0xBF2A01A019BFDF03)
LANES4(bmSin4, 0x3F8111111110F7D0)
LANES4(bmSin5, 0xBFC5555555555548)
LANES4(bmCos0, 0xBDA8FA49A0861A9B)
LANES4(bmCos1, 0x3E21EE9D7B4E3F05)
LANES4(bmCos2, 0xBE927E4F7EAC4BC6)
LANES4(bmCos3, 0x3EFA01A019C844F5)
LANES4(bmCos4, 0xBF56C16C16C14F91)
LANES4(bmCos5, 0x3FA555555555554B)
LANES4(bmInt1, 0x0000000100000001)     // int32 lanes of 1 (the low 16 bytes serve)
LANES4(bmInt2, 0x0000000000000002)     // int64 lanes of 2

// func boxMullerAVX2(u, v *float64, n int)
//
// For k in [0, n), n a multiple of 4, replaces (u[k], v[k]) by
// (mag·cos, mag·sin) with mag = Sqrt(-2·Log(u[k])) and (sin, cos) =
// Sincos(2π·v[k]), four pairs per iteration. Log is math.Log's amd64
// assembly (archLog) and Sincos is math.Sincos, replayed op for op: the
// same IEEE operations in the same order, with archLog's frexp done by bit
// masks and Sincos's odd-octant fix-up, octant swap and sign flips done by
// integer adds and compare-and-mask blends on 64-bit lanes. Packed ops
// round exactly like the scalar ones, so each lane is bit-identical to the
// scalar code for the inputs the stream produces (u ∈ [2^-53, 1),
// v ∈ [0, 1)).
TEXT ·boxMullerAVX2(SB), NOSPLIT, $0-24
	MOVQ u+0(FP), SI
	MOVQ v+8(FP), DX
	MOVQ n+16(FP), CX
	SHRQ $2, CX
	JZ   done

loop:
	// mag = Sqrt(-2·Log(u)).
	VMOVUPD (SI), Y0
	VANDPD  bmMant<>(SB), Y0, Y1
	VORPD   bmHalf<>(SB), Y1, Y1  // f1 ∈ [0.5, 1): the frexp mantissa
	VPSRLQ  $52, Y0, Y0           // biased exponent (u > 0: no sign bit)
	VORPD   bmTwo52<>(SB), Y0, Y0 // 2^52 + exponent, exactly
	VSUBPD  bmKBias<>(SB), Y0, Y0 // k = exponent - 1022, exactly

	// archLog's branch-free fix-up, same compare: if !(√2/2 < f1) { k -= 1; f1 *= 2 }.
	VMOVUPD bmHSqrt2<>(SB), Y2
	VCMPPD  $5, Y1, Y2, Y2
	VANDPD  bmOne<>(SB), Y2, Y2
	VSUBPD  Y2, Y0, Y0
	VADDPD  bmOne<>(SB), Y2, Y2
	VMULPD  Y2, Y1, Y1
	VSUBPD  bmOne<>(SB), Y1, Y1   // f = f1 - 1

	// s = f/(2+f); s2 = s·s; s4 = s2·s2
	VADDPD bmTwo<>(SB), Y1, Y2
	VDIVPD Y2, Y1, Y3
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5

	// t1 = s2·(L1+s4·(L3+s4·(L5+s4·L7)))
	VMULPD bmL7<>(SB), Y5, Y6
	VADDPD bmL5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD bmL3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD bmL1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4

	// t2 = s4·(L2+s4·(L4+s4·L6)); R = t1 + t2
	VMULPD bmL6<>(SB), Y5, Y6
	VADDPD bmL4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD bmL2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4

	// Log(u) = k·Ln2Hi - ((hfsq - (s·(hfsq+R) + k·Ln2Lo)) - f), hfsq = 0.5·f·f
	VMULPD  bmHalf<>(SB), Y1, Y2
	VMULPD  Y1, Y2, Y2
	VADDPD  Y2, Y4, Y4
	VMULPD  Y4, Y3, Y3
	VMULPD  bmLn2Lo<>(SB), Y0, Y4
	VADDPD  Y4, Y3, Y3
	VSUBPD  Y3, Y2, Y2
	VSUBPD  Y1, Y2, Y2
	VMULPD  bmLn2Hi<>(SB), Y0, Y0
	VSUBPD  Y2, Y0, Y0
	VMULPD  bmNegTwo<>(SB), Y0, Y0
	VSQRTPD Y0, Y0                // mag

	// Sincos(x), x = 2π·v: j = int(x·4/π), rounded up to even, y = float64(j).
	VMOVUPD     (DX), Y8
	VMULPD      bmTwoPi<>(SB), Y8, Y8
	VMULPD      bmFourOverPi<>(SB), Y8, Y9
	VCVTTPD2DQY Y9, X9
	VPAND       bmInt1<>(SB), X9, X10
	VPADDD      X10, X9, X9
	VCVTDQ2PD   X9, Y10

	// z = ((x - y·PI4A) - y·PI4B) - y·PI4C; zz = z·z
	VMULPD bmPI4A<>(SB), Y10, Y11
	VSUBPD Y11, Y8, Y8
	VMULPD bmPI4B<>(SB), Y10, Y11
	VSUBPD Y11, Y8, Y8
	VMULPD bmPI4C<>(SB), Y10, Y10
	VSUBPD Y10, Y8, Y8
	VMULPD Y8, Y8, Y11

	// cos = 1 - 0.5·zz + zz·zz·((((((C0·zz)+C1)·zz+C2)·zz+C3)·zz+C4)·zz+C5)
	VMULPD  bmCos0<>(SB), Y11, Y12
	VADDPD  bmCos1<>(SB), Y12, Y12
	VMULPD  Y11, Y12, Y12
	VADDPD  bmCos2<>(SB), Y12, Y12
	VMULPD  Y11, Y12, Y12
	VADDPD  bmCos3<>(SB), Y12, Y12
	VMULPD  Y11, Y12, Y12
	VADDPD  bmCos4<>(SB), Y12, Y12
	VMULPD  Y11, Y12, Y12
	VADDPD  bmCos5<>(SB), Y12, Y12
	VMULPD  Y11, Y11, Y13
	VMULPD  Y13, Y12, Y12
	VMULPD  bmHalf<>(SB), Y11, Y13
	VMOVUPD bmOne<>(SB), Y14
	VSUBPD  Y13, Y14, Y14
	VADDPD  Y12, Y14, Y14

	// sin = z + z·zz·((((((S0·zz)+S1)·zz+S2)·zz+S3)·zz+S4)·zz+S5)
	VMULPD bmSin0<>(SB), Y11, Y12
	VADDPD bmSin1<>(SB), Y12, Y12
	VMULPD Y11, Y12, Y12
	VADDPD bmSin2<>(SB), Y12, Y12
	VMULPD Y11, Y12, Y12
	VADDPD bmSin3<>(SB), Y12, Y12
	VMULPD Y11, Y12, Y12
	VADDPD bmSin4<>(SB), Y12, Y12
	VMULPD Y11, Y12, Y12
	VADDPD bmSin5<>(SB), Y12, Y12
	VMULPD Y8, Y11, Y11
	VMULPD Y11, Y12, Y12
	VADDPD Y12, Y8, Y8

	// Octant j&7 ∈ {0, 2, 4, 6}, with j widened to 64-bit lanes: swap sin
	// and cos where j&2, then negate cos where (j&2)^(j&4) and sin where j&4.
	VPMOVSXDQ X9, Y9
	VPAND     bmInt2<>(SB), Y9, Y10
	VPCMPEQQ  bmInt2<>(SB), Y10, Y10
	VXORPD    Y14, Y8, Y12
	VANDPD    Y10, Y12, Y12
	VXORPD    Y12, Y8, Y8
	VXORPD    Y12, Y14, Y14
	VPSLLQ    $61, Y9, Y10        // bit 63 = j&4
	VPSLLQ    $62, Y9, Y9         // bit 63 = j&2
	VPXOR     Y10, Y9, Y9
	VPAND     bmSign<>(SB), Y10, Y10
	VPAND     bmSign<>(SB), Y9, Y9
	VXORPD    Y10, Y8, Y8
	VXORPD    Y9, Y14, Y14

	// u[k], v[k] = mag·cos, mag·sin
	VMULPD  Y0, Y14, Y14
	VMULPD  Y0, Y8, Y8
	VMOVUPD Y14, (SI)
	VMOVUPD Y8, (DX)

	ADDQ $32, SI
	ADDQ $32, DX
	DECQ CX
	JNZ  loop
	VZEROUPPER

done:
	RET

// func scalePairsAVX2(d *float32, c, s *float64, n int, mu, sigma float32)
//
// d[2k] = mu + sigma·float32(c[k]) and d[2k+1] = mu + sigma·float32(s[k])
// for k < n, n a positive multiple of 4: each pair's two normals narrow
// to float32 (round to nearest even, as Go's conversion does), interleave
// into the draw order, and take one multiply and one add per lane.
TEXT ·scalePairsAVX2(SB), NOSPLIT, $0-40
	MOVQ         d+0(FP), DI
	MOVQ         c+8(FP), SI
	MOVQ         s+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS mu+32(FP), Y10
	VBROADCASTSS sigma+36(FP), Y11

sp4:
	VCVTPD2PSY  (SI), X0
	VCVTPD2PSY  (DX), X1
	VUNPCKLPS   X1, X0, X2 // c0 s0 c1 s1
	VUNPCKHPS   X1, X0, X3 // c2 s2 c3 s3
	VINSERTF128 $1, X3, Y2, Y2
	VMULPS      Y2, Y11, Y2
	VADDPS      Y2, Y10, Y2
	VMOVUPS     Y2, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DX
	ADDQ        $32, DI
	SUBQ        $4, CX
	JNZ         sp4
	VZEROUPPER
	RET

// func addPairsAVX2(d *float32, c, s *float64, n int, sigma float32)
//
// scalePairsAVX2 accumulating into d: d[2k] += sigma·float32(c[k]) and
// d[2k+1] += sigma·float32(s[k]).
TEXT ·addPairsAVX2(SB), NOSPLIT, $0-36
	MOVQ         d+0(FP), DI
	MOVQ         c+8(FP), SI
	MOVQ         s+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS sigma+32(FP), Y11

ap4:
	VCVTPD2PSY  (SI), X0
	VCVTPD2PSY  (DX), X1
	VUNPCKLPS   X1, X0, X2 // c0 s0 c1 s1
	VUNPCKHPS   X1, X0, X3 // c2 s2 c3 s3
	VINSERTF128 $1, X3, Y2, Y2
	VMULPS      Y2, Y11, Y2
	VMOVUPS     (DI), Y3
	VADDPS      Y2, Y3, Y3
	VMOVUPS     Y3, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DX
	ADDQ        $32, DI
	SUBQ        $4, CX
	JNZ         ap4
	VZEROUPPER
	RET
