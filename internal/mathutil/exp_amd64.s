#include "textflag.h"

// expVector repeats, four lanes at a time, the FMA path of the standard
// library's archExp (math/exp_amd64.s): the same constants, the same
// operations in the same order, each lane rounded where the scalar code
// rounds. Its argument window keeps every lane off archExp's special cases:
// on [-707, 709] the scale 2^k stays a normal number, so neither the
// denormal nor the overflow branch can be taken.

// Each constant is stored once per lane.
#define LANES(off, v) DATA expconst<>+(off)(SB)/8, v; DATA expconst<>+(off+8)(SB)/8, v; DATA expconst<>+(off+16)(SB)/8, v; DATA expconst<>+(off+24)(SB)/8, v

#define LO 0
#define HI 32
#define LOG2E 64
#define LN2U 96
#define LN2L 128
#define SIXTEENTH 160
#define T8 192
#define T7 224
#define T6 256
#define T5 288
#define T4 320
#define T3 352
#define T2 384
#define ONE 416
#define TWO 448
#define BIAS 480

LANES(LO, $-707.0)
LANES(HI, $709.0)
LANES(LOG2E, $1.4426950408889634073599246810018920)
LANES(LN2U, $0.69314718055966295651160180568695068359375)
LANES(LN2L, $0.28235290563031577122588448175013436025525412068e-12)
LANES(SIXTEENTH, $0.0625)
LANES(T8, $2.4801587301587301587e-5)
LANES(T7, $1.9841269841269841270e-4)
LANES(T6, $1.3888888888888888889e-3)
LANES(T5, $8.3333333333333333333e-3)
LANES(T4, $4.1666666666666666667e-2)
LANES(T3, $1.6666666666666666667e-1)
LANES(T2, $0.5)
LANES(ONE, $1.0)
LANES(TWO, $2.0)
DATA expconst<>+(BIAS)(SB)/8, $0x000003ff000003ff
DATA expconst<>+(BIAS+8)(SB)/8, $0x000003ff000003ff
GLOBL expconst<>(SB), RODATA|NOPTR, $496

// func expVector(dst, src []float64) int
TEXT ·expVector(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	XORQ AX, AX

loop:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  done
	VMOVUPD (SI)(AX*8), Y0

	// Stop at a group holding NaN, ±Inf or an argument outside the window.
	VCMPPD    $0x1d, expconst<>+LO(SB), Y0, Y1 // x >= -707, ordered
	VCMPPD    $0x12, expconst<>+HI(SB), Y0, Y2 // x <= 709, ordered
	VANDPD    Y1, Y2, Y1
	VMOVMSKPD Y1, BX
	CMPQ      BX, $15
	JNE       done

	// k = round(x·log2 e), then the argument reduction.
	VMULPD       expconst<>+LOG2E(SB), Y0, Y1
	VCVTPD2DQY   Y1, X3
	VCVTDQ2PD    X3, Y1
	VFNMADD231PD expconst<>+LN2U(SB), Y1, Y0
	VFNMADD231PD expconst<>+LN2L(SB), Y1, Y0
	VMULPD       expconst<>+SIXTEENTH(SB), Y0, Y0

	// Taylor series evaluation
	VMOVUPD     expconst<>+T8(SB), Y1
	VFMADD213PD expconst<>+T7(SB), Y0, Y1
	VFMADD213PD expconst<>+T6(SB), Y0, Y1
	VFMADD213PD expconst<>+T5(SB), Y0, Y1
	VFMADD213PD expconst<>+T4(SB), Y0, Y1
	VFMADD213PD expconst<>+T3(SB), Y0, Y1
	VFMADD213PD expconst<>+T2(SB), Y0, Y1
	VFMADD213PD expconst<>+ONE(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+TWO(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+TWO(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+TWO(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+TWO(SB), Y0, Y1
	VFMADD213PD expconst<>+ONE(SB), Y1, Y0

	// Multiply by 2^k: each lane's (k+1023)<<52 is built in the high half
	// of its quadword, from 128-bit integer operations only.
	VPADDD      expconst<>+BIAS(SB), X3, X3
	VPSLLD      $20, X3, X3
	VPXOR       X2, X2, X2
	VPUNPCKLDQ  X3, X2, X4
	VPUNPCKHDQ  X3, X2, X5
	VINSERTF128 $1, X5, Y4, Y4
	VMULPD      Y4, Y0, Y0

	VMOVUPD Y0, (DI)(AX*8)
	MOVQ    DX, AX
	JMP     loop

done:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func cpuHasAVXFMA() bool
//
// The condition the standard library's archExp takes its FMA path on: the
// CPU has AVX and FMA, and the OS saves the YMM registers (OSXSAVE, then
// XCR0's SSE and AVX state bits).
TEXT ·cpuHasAVXFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX // FMA (bit 12), OSXSAVE (27), AVX (28)
	CMPL CX, $0x18001000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
