//go:build amd64

#include "textflag.h"

// Packed float64 constants, the same value in both lanes. A 16-byte
// symbol is 16-byte aligned by the linker, so SSE2 memory operands may
// name them directly.
#define LANES2(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $16

LANES2(bmMant, 0x000FFFFFFFFFFFFF)
LANES2(bmHalf, 0x3FE0000000000000)     // 0.5
LANES2(bmOne, 0x3FF0000000000000)      // 1
LANES2(bmTwo, 0x4000000000000000)      // 2
LANES2(bmNegTwo, 0xC000000000000000)   // -2
LANES2(bmTwo52, 0x4330000000000000)    // 2^52
LANES2(bmKBias, 0x43300000000003FE)    // 2^52 + 1022
LANES2(bmSign, 0x8000000000000000)
LANES2(bmHSqrt2, 0x3FE6A09E667F3BCD)   // √2/2
LANES2(bmLn2Hi, 0x3FE62E42FEE00000)
LANES2(bmLn2Lo, 0x3DEA39EF35793C76)
LANES2(bmL1, 0x3FE5555555555593)
LANES2(bmL2, 0x3FD999999997FA04)
LANES2(bmL3, 0x3FD2492494229359)
LANES2(bmL4, 0x3FCC71C51D8E78AF)
LANES2(bmL5, 0x3FC7466496CB03DE)
LANES2(bmL6, 0x3FC39A09D078C69F)
LANES2(bmL7, 0x3FC2F112DF3E5244)
LANES2(bmTwoPi, 0x401921FB54442D18)    // float64(2π)
LANES2(bmFourOverPi, 0x3FF45F306DC9C883) // float64(4/π)
LANES2(bmPI4A, 0x3FE921FB40000000)
LANES2(bmPI4B, 0x3E64442D00000000)
LANES2(bmPI4C, 0x3CE8469898CC5170)
LANES2(bmSin0, 0x3DE5D8FD1FD19CCD)
LANES2(bmSin1, 0xBE5AE5E5A9291F5D)
LANES2(bmSin2, 0x3EC71DE3567D48A1)
LANES2(bmSin3, 0xBF2A01A019BFDF03)
LANES2(bmSin4, 0x3F8111111110F7D0)
LANES2(bmSin5, 0xBFC5555555555548)
LANES2(bmCos0, 0xBDA8FA49A0861A9B)
LANES2(bmCos1, 0x3E21EE9D7B4E3F05)
LANES2(bmCos2, 0xBE927E4F7EAC4BC6)
LANES2(bmCos3, 0x3EFA01A019C844F5)
LANES2(bmCos4, 0xBF56C16C16C14F91)
LANES2(bmCos5, 0x3FA555555555554B)

// Packed int32 constants for the octant index.
DATA bmInt1<>+0(SB)/8, $0x0000000100000001
DATA bmInt1<>+8(SB)/8, $0x0000000100000001
GLOBL bmInt1<>(SB), RODATA|NOPTR, $16
DATA bmInt2<>+0(SB)/8, $0x0000000200000002
DATA bmInt2<>+8(SB)/8, $0x0000000200000002
GLOBL bmInt2<>(SB), RODATA|NOPTR, $16

// func boxMullerSSE2(u, v *float64, n int)
//
// For k in [0, n), n even, replaces (u[k], v[k]) by (mag·cos, mag·sin)
// with mag = Sqrt(-2·Log(u[k])) and (sin, cos) = Sincos(2π·v[k]), two
// pairs per iteration. Log is math.Log's amd64 assembly (archLog) and
// Sincos is math.Sincos, replayed op for op: the same IEEE operations in
// the same order, with archLog's frexp done by bit masks and Sincos's
// odd-octant fix-up, octant swap and sign flips done by integer adds and
// compare-and-mask blends. Packed ops round exactly like the scalar ones,
// so each lane is bit-identical to the scalar code for the inputs the
// stream produces (u ∈ [2^-53, 1), v ∈ [0, 1)).
TEXT ·boxMullerSSE2(SB), NOSPLIT, $0-24
	MOVQ u+0(FP), SI
	MOVQ v+8(FP), DX
	MOVQ n+16(FP), CX
	SHRQ $1, CX
	JZ   done

loop:
	// mag = Sqrt(-2·Log(u)).
	MOVUPD (SI), X0
	MOVAPD X0, X1
	ANDPD  bmMant<>(SB), X1
	ORPD   bmHalf<>(SB), X1  // f1 ∈ [0.5, 1): the frexp mantissa
	PSRLQ  $52, X0           // biased exponent (u > 0: no sign bit)
	ORPD   bmTwo52<>(SB), X0 // 2^52 + exponent, exactly
	SUBPD  bmKBias<>(SB), X0 // k = exponent - 1022, exactly

	// archLog's branch-free fix-up, same compare: if !(√2/2 < f1) { k -= 1; f1 *= 2 }.
	MOVAPD bmHSqrt2<>(SB), X2
	CMPPD  X1, X2, 5
	ANDPD  bmOne<>(SB), X2
	SUBPD  X2, X0
	ADDPD  bmOne<>(SB), X2
	MULPD  X2, X1
	SUBPD  bmOne<>(SB), X1   // f = f1 - 1

	// s = f/(2+f); s2 = s·s; s4 = s2·s2
	MOVAPD bmTwo<>(SB), X2
	ADDPD  X1, X2
	MOVAPD X1, X3
	DIVPD  X2, X3
	MOVAPD X3, X4
	MULPD  X4, X4
	MOVAPD X4, X5
	MULPD  X5, X5

	// t1 = s2·(L1+s4·(L3+s4·(L5+s4·L7)))
	MOVAPD bmL7<>(SB), X6
	MULPD  X5, X6
	ADDPD  bmL5<>(SB), X6
	MULPD  X5, X6
	ADDPD  bmL3<>(SB), X6
	MULPD  X5, X6
	ADDPD  bmL1<>(SB), X6
	MULPD  X6, X4

	// t2 = s4·(L2+s4·(L4+s4·L6)); R = t1 + t2
	MOVAPD bmL6<>(SB), X6
	MULPD  X5, X6
	ADDPD  bmL4<>(SB), X6
	MULPD  X5, X6
	ADDPD  bmL2<>(SB), X6
	MULPD  X6, X5
	ADDPD  X5, X4

	// Log(u) = k·Ln2Hi - ((hfsq - (s·(hfsq+R) + k·Ln2Lo)) - f), hfsq = 0.5·f·f
	MOVAPD bmHalf<>(SB), X2
	MULPD  X1, X2
	MULPD  X1, X2
	ADDPD  X2, X4
	MULPD  X4, X3
	MOVAPD bmLn2Lo<>(SB), X4
	MULPD  X0, X4
	ADDPD  X4, X3
	SUBPD  X3, X2
	SUBPD  X1, X2
	MULPD  bmLn2Hi<>(SB), X0
	SUBPD  X2, X0

	MULPD  bmNegTwo<>(SB), X0
	SQRTPD X0, X0            // mag

	// Sincos(x), x = 2π·v: j = int(x·4/π), rounded up to even, y = float64(j).
	MOVUPD    (DX), X8
	MULPD     bmTwoPi<>(SB), X8
	MOVAPD    X8, X9
	MULPD     bmFourOverPi<>(SB), X9
	CVTTPD2PL X9, X9
	MOVO      X9, X10
	PAND      bmInt1<>(SB), X10
	PADDL     X10, X9
	CVTPL2PD  X9, X10

	// z = ((x - y·PI4A) - y·PI4B) - y·PI4C; zz = z·z
	MOVAPD X10, X11
	MULPD  bmPI4A<>(SB), X11
	SUBPD  X11, X8
	MOVAPD X10, X11
	MULPD  bmPI4B<>(SB), X11
	SUBPD  X11, X8
	MULPD  bmPI4C<>(SB), X10
	SUBPD  X10, X8
	MOVAPD X8, X11
	MULPD  X11, X11

	// cos = 1 - 0.5·zz + zz·zz·((((((C0·zz)+C1)·zz+C2)·zz+C3)·zz+C4)·zz+C5)
	MOVAPD bmCos0<>(SB), X12
	MULPD  X11, X12
	ADDPD  bmCos1<>(SB), X12
	MULPD  X11, X12
	ADDPD  bmCos2<>(SB), X12
	MULPD  X11, X12
	ADDPD  bmCos3<>(SB), X12
	MULPD  X11, X12
	ADDPD  bmCos4<>(SB), X12
	MULPD  X11, X12
	ADDPD  bmCos5<>(SB), X12
	MOVAPD X11, X13
	MULPD  X11, X13
	MULPD  X13, X12
	MOVAPD bmHalf<>(SB), X13
	MULPD  X11, X13
	MOVAPD bmOne<>(SB), X14
	SUBPD  X13, X14
	ADDPD  X12, X14

	// sin = z + z·zz·((((((S0·zz)+S1)·zz+S2)·zz+S3)·zz+S4)·zz+S5)
	MOVAPD bmSin0<>(SB), X12
	MULPD  X11, X12
	ADDPD  bmSin1<>(SB), X12
	MULPD  X11, X12
	ADDPD  bmSin2<>(SB), X12
	MULPD  X11, X12
	ADDPD  bmSin3<>(SB), X12
	MULPD  X11, X12
	ADDPD  bmSin4<>(SB), X12
	MULPD  X11, X12
	ADDPD  bmSin5<>(SB), X12
	MULPD  X8, X11
	MULPD  X11, X12
	ADDPD  X12, X8

	// Octant j&7 ∈ {0, 2, 4, 6}: swap sin and cos where j&2, then negate
	// cos where (j&2)^(j&4) and sin where j&4.
	PSHUFD  $0x50, X9, X9    // lane k holds j_k in both of its dwords
	MOVO    X9, X10
	PAND    bmInt2<>(SB), X10
	PCMPEQL bmInt2<>(SB), X10
	MOVAPD  X8, X12
	XORPD   X14, X12
	ANDPD   X10, X12
	XORPD   X12, X8
	XORPD   X12, X14
	MOVO    X9, X10
	PSLLQ   $61, X10         // bit 63 = j&4
	PSLLQ   $62, X9          // bit 63 = j&2
	PXOR    X10, X9
	PAND    bmSign<>(SB), X10
	PAND    bmSign<>(SB), X9
	XORPD   X10, X8
	XORPD   X9, X14

	// u[k], v[k] = mag·cos, mag·sin
	MULPD  X0, X14
	MULPD  X0, X8
	MOVUPD X14, (SI)
	MOVUPD X8, (DX)

	ADDQ $16, SI
	ADDQ $16, DX
	DECQ CX
	JNZ  loop

done:
	RET
