#include "textflag.h"

// k-means's three sweeps, four lanes at a time. As in logreg_amd64.s, every
// lane holds one independent sum and repeats the Go loop's operations in the
// loop's order: VSUBPD, VMULPD, then VADDPD with the running sum as the first
// source operand, each rounding once as SUBSD, MULSD and ADDSD do, never an
// FMA. The first source also decides which NaN payload a sum of two NaNs
// keeps: it is the running sum, whose NaN the Go loops keep too (addFirst).

DATA kmconst<>+0(SB)/8, $0x7ff0000000000000 // +Inf
GLOBL kmconst<>(SB), RODATA|NOPTR, $8

// PAIRS4 loads features j and j+1 (byte offset AX) of four rows at r0–r3
// and leaves feature j of the four rows in lo and feature j+1 in hi, row l
// in lane l: rows 0 and 2 are joined in one register, rows 1 and 3 in the
// other, and the unpacks interleave them.
#define PAIRS4(r0, r1, r2, r3, lo, hi) \
	VMOVUPD     (r0)(AX*1), X4; \
	VINSERTF128 $1, (r2)(AX*1), Y4, Y4; \
	VMOVUPD     (r1)(AX*1), X5; \
	VINSERTF128 $1, (r3)(AX*1), Y5, Y5; \
	VUNPCKLPD   Y5, Y4, lo; \
	VUNPCKHPD   Y5, Y4, hi

// ONE4 loads feature j (byte offset AX) of four rows at r0–r3 into dst, row
// l in lane l.
#define ONE4(r0, r1, r2, r3, dst) \
	VMOVSD      (r0)(AX*1), X4; \
	VMOVHPD     (r1)(AX*1), X4, X4; \
	VMOVSD      (r2)(AX*1), X5; \
	VMOVHPD     (r3)(AX*1), X5, X5; \
	VINSERTF128 $1, X5, Y4, dst

// ADDSQ adds (p − c)² to the sums in Y0: p − c, squared, then added.
#define ADDSQ(p, c) \
	VSUBPD c, p, p; \
	VMULPD p, p, p; \
	VADDPD p, Y0, Y0

// func seedRoundAVX(block []mathutil.Vec, center []float64, c int, weights, lower []float64, labels []int)
//
// Lanes are points: s = Σ_j (block[i][j] − center[j])², from +0 in feature
// order, then note's bookkeeping for i < len(weights) &^ 3 without a
// branch. In round 0, weights[i] = s and lower[i] = +Inf. In a later round,
// s takes over weights[i] (and labels[i] becomes c, lower[i] the old weight)
// when s < weights[i], or when weights[i] is NaN and s < +Inf; otherwise
// lower[i] becomes s if s < lower[i]. VCMPPD's ordered compares are false on
// NaN as Go's < is, and VMINPD returns its second source unless the first is
// strictly smaller, as the else-if keeps lower[i].
//
// SI, R8, R9 and R10 are the four rows, DX the center, BX the block's next
// row header, DI the group's byte offset in weights, lower and labels.
TEXT ·seedRoundAVX(SB), NOSPLIT, $0-128
	MOVQ         block_base+0(FP), BX
	MOVQ         center_base+24(FP), DX
	MOVQ         center_len+32(FP), R12
	MOVQ         weights_len+64(FP), CX
	SHLQ         $3, R12               // the feature bytes
	MOVQ         R12, R13
	ANDQ         $-16, R13             // the bytes of whole feature pairs
	SHRQ         $2, CX                // the groups of four points
	XORQ         DI, DI
	VBROADCASTSD kmconst<>+0(SB), Y10  // +Inf
	VBROADCASTSD c+48(FP), Y11         // c, as the labels' bits

seedgroup:
	TESTQ  CX, CX
	JZ     seeddone
	MOVQ   (BX), SI
	MOVQ   24(BX), R8
	MOVQ   48(BX), R9
	MOVQ   72(BX), R10
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

seedpair:
	CMPQ         AX, R13
	JGE          seedodd
	PAIRS4(SI, R8, R9, R10, Y6, Y7)
	VBROADCASTSD (DX)(AX*1), Y8
	VBROADCASTSD 8(DX)(AX*1), Y9
	ADDSQ(Y6, Y8)
	ADDSQ(Y7, Y9)
	ADDQ         $16, AX
	JMP          seedpair

seedodd:
	CMPQ         AX, R12
	JGE          seednote
	ONE4(SI, R8, R9, R10, Y6)
	VBROADCASTSD (DX)(AX*1), Y8
	ADDSQ(Y6, Y8)

seednote:
	MOVQ    weights_base+56(FP), R11
	CMPQ    c+48(FP), $0
	JNE     seedlater
	VMOVUPD Y0, (R11)(DI*1)
	MOVQ    lower_base+80(FP), R11
	VMOVUPD Y10, (R11)(DI*1)
	JMP     seednext

seedlater:
	VMOVUPD   (R11)(DI*1), Y1  // the weights d2
	VCMPPD    $0x11, Y1, Y0, Y2 // s < d2
	VCMPPD    $0x03, Y1, Y1, Y3 // d2 is NaN
	VCMPPD    $0x11, Y10, Y0, Y4 // s < +Inf
	VANDPD    Y4, Y3, Y3
	VORPD     Y3, Y2, Y2        // s takes over
	VBLENDVPD Y2, Y0, Y1, Y5
	VMOVUPD   Y5, (R11)(DI*1)
	MOVQ      lower_base+80(FP), R11
	VMOVUPD   (R11)(DI*1), Y3
	VMINPD    Y3, Y0, Y4        // s < lower ? s : lower
	VBLENDVPD Y2, Y1, Y4, Y4
	VMOVUPD   Y4, (R11)(DI*1)
	MOVQ      labels_base+104(FP), R11
	VMOVUPD   (R11)(DI*1), Y3
	VBLENDVPD Y2, Y11, Y3, Y3
	VMOVUPD   Y3, (R11)(DI*1)

seednext:
	ADDQ $32, DI
	ADDQ $96, BX
	DECQ CX
	JMP  seedgroup

seeddone:
	VZEROUPPER
	RET

// func ownDistsAVX(dists []float64, block []mathutil.Vec, open, labels []int, centers []float64, f int)
//
// Lanes are points: dists[i] = Σ_j (block[i][j] − centers[a·f+j])², from +0
// in feature order, with i = open[t] and a = labels[i], for
// t < len(open) &^ 3. SI, DI, R8 and R9 are the four rows, R10–R13 their
// centers, DX the group's entries in open.
TEXT ·ownDistsAVX(SB), NOSPLIT, $0-128
	MOVQ open_len+56(FP), CX
	MOVQ open_base+48(FP), DX
	SHRQ $2, CX

#define OWNLANE(off, row, ctr) \
	MOVQ  off(DX), row; \
	MOVQ  (AX)(row*8), ctr; \
	LEAQ  (row)(row*2), row; \
	MOVQ  (BX)(row*8), row; \
	IMULQ f+120(FP), ctr; \
	SHLQ  $3, ctr; \
	ADDQ  centers_base+96(FP), ctr

owngroup:
	TESTQ  CX, CX
	JZ     owndone
	MOVQ   block_base+24(FP), BX
	MOVQ   labels_base+72(FP), AX
	OWNLANE(0, SI, R10)
	OWNLANE(8, DI, R11)
	OWNLANE(16, R8, R12)
	OWNLANE(24, R9, R13)
	MOVQ   f+120(FP), BX
	SHLQ   $3, BX
	ANDQ   $-16, BX
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

ownpair:
	CMPQ AX, BX
	JGE  ownodd
	PAIRS4(SI, DI, R8, R9, Y6, Y7)
	PAIRS4(R10, R11, R12, R13, Y8, Y9)
	ADDSQ(Y6, Y8)
	ADDSQ(Y7, Y9)
	ADDQ $16, AX
	JMP  ownpair

ownodd:
	MOVQ f+120(FP), BX
	SHLQ $3, BX
	CMPQ AX, BX
	JGE  ownstore
	ONE4(SI, DI, R8, R9, Y6)
	ONE4(R10, R11, R12, R13, Y8)
	ADDSQ(Y6, Y8)

ownstore:
	MOVQ         dists_base+0(FP), BX
	MOVQ         (DX), AX
	VMOVSD       X0, (BX)(AX*8)
	MOVQ         8(DX), AX
	VMOVHPD      X0, (BX)(AX*8)
	VEXTRACTF128 $1, Y0, X0
	MOVQ         16(DX), AX
	VMOVSD       X0, (BX)(AX*8)
	MOVQ         24(DX), AX
	VMOVHPD      X0, (BX)(AX*8)
	ADDQ         $32, DX
	DECQ         CX
	JMP          owngroup

owndone:
	VZEROUPPER
	RET

// func nearestAVX(near, open []int, block []mathutil.Vec, centersT []float64, k, f int, upper, lower []float64)
//
// Lanes are centers: for each point i = open[t], four centers' sums
// Σ_j (p[j] − c[j])² run side by side from +0 in feature order, with p[j]
// broadcast and the centers' coordinates read from centersT, feature j of
// center c at j·k4 + c (k4 is k rounded up to four). The sums are spilled
// and folded in center order as keep folds them: best takes a sum strictly
// below it (its old value becomes second), second a sum strictly below
// itself. A NaN sum takes neither. Then near[t] is the nearest center,
// upper[i] its sum and lower[i] the smallest other one.
//
// SI walks open, CX counts the points left, DI is the point's row, R8 the
// group's first center, R9 the group's coordinates of feature j, R10 the
// feature stride k4·8, R11 the nearest center; X0 is best, X2 second.
TEXT ·nearestAVX(SB), NOSPLIT, $32-160
	MOVQ open_base+24(FP), SI
	MOVQ open_len+32(FP), CX
	MOVQ k+96(FP), R10
	ADDQ $3, R10
	ANDQ $-4, R10
	SHLQ $3, R10

nearpoint:
	TESTQ        CX, CX
	JZ           neardone
	MOVQ         (SI), DI
	LEAQ         (DI)(DI*2), DI
	MOVQ         block_base+48(FP), BX
	MOVQ         (BX)(DI*8), DI
	VBROADCASTSD kmconst<>+0(SB), Y0
	VMOVAPD      X0, X2
	XORQ         R11, R11
	XORQ         R8, R8

neargroup:
	CMPQ   R8, k+96(FP)
	JGE    nearstore
	MOVQ   centersT_base+72(FP), R9
	LEAQ   (R9)(R8*8), R9
	VXORPD Y4, Y4, Y4
	XORQ   AX, AX

nearfeat:
	VBROADCASTSD (DI)(AX*8), Y5
	VSUBPD       (R9), Y5, Y5
	VMULPD       Y5, Y5, Y5
	VADDPD       Y5, Y4, Y4
	ADDQ         R10, R9
	INCQ         AX
	CMPQ         AX, f+104(FP)
	JLT          nearfeat
	VMOVUPD      Y4, (SP)
	XORQ         BX, BX

nearfold:
	LEAQ     (R8)(BX*1), R12 // the center
	CMPQ     R12, k+96(FP)
	JGE      nearnext
	VMOVSD   (SP)(BX*8), X1  // s
	VUCOMISD X1, X0
	CMOVQHI  R12, R11        // s < best: the nearest center is this one
	VMAXSD   X1, X0, X3      // best > s ? best : s, and s when s is NaN
	VMINSD   X2, X3, X2      // second: best if s < best, else s if s < second
	VMINSD   X0, X1, X0      // best: s < best ? s : best
	INCQ     BX
	CMPQ     BX, $4
	JLT      nearfold

nearnext:
	ADDQ $4, R8
	JMP  neargroup

nearstore:
	MOVQ   (SI), AX
	MOVQ   upper_base+112(FP), BX
	VMOVSD X0, (BX)(AX*8)
	MOVQ   lower_base+136(FP), BX
	VMOVSD X2, (BX)(AX*8)
	MOVQ   SI, BX
	SUBQ   open_base+24(FP), BX
	ADDQ   near_base+0(FP), BX
	MOVQ   R11, (BX)
	ADDQ   $8, SI
	DECQ   CX
	JMP    nearpoint

neardone:
	VZEROUPPER
	RET

// func resumAVX(sums []float64, block []mathutil.Vec, labels []int, changed []bool, f int)
//
// Lanes are features: each row i whose cluster c = labels[i] has changed
// set adds its first f cells to sums[c·f:(c+1)·f], in block order, four
// features a VADDPD with the running sum as its first source, then the
// last f mod 4 one at a time. DI is the sums, SI the next row header, BX
// the next label, R10 the row's sums and R11 the row.
TEXT ·resumAVX(SB), NOSPLIT, $0-104
	MOVQ sums_base+0(FP), DI
	MOVQ block_base+24(FP), SI
	MOVQ block_len+32(FP), CX
	MOVQ labels_base+48(FP), BX
	MOVQ changed_base+72(FP), DX
	MOVQ f+96(FP), R8
	SHLQ $3, R8                 // the feature bytes
	MOVQ R8, R9
	ANDQ $-32, R9               // the bytes of whole groups of four

resumrow:
	TESTQ CX, CX
	JZ    resumdone
	MOVQ  (BX), R10
	CMPB  (DX)(R10*1), $0
	JEQ   resumnext
	IMULQ R8, R10
	ADDQ  DI, R10
	MOVQ  (SI), R11
	XORQ  AX, AX

resumquad:
	CMPQ    AX, R9
	JGE     resumtail
	VMOVUPD (R10)(AX*1), Y0
	VADDPD  (R11)(AX*1), Y0, Y0
	VMOVUPD Y0, (R10)(AX*1)
	ADDQ    $32, AX
	JMP     resumquad

resumtail:
	CMPQ   AX, R8
	JGE    resumnext
	VMOVSD (R10)(AX*1), X0
	VADDSD (R11)(AX*1), X0, X0
	VMOVSD X0, (R10)(AX*1)
	ADDQ   $8, AX
	JMP    resumtail

resumnext:
	ADDQ $8, BX
	ADDQ $24, SI
	DECQ CX
	JMP  resumrow

resumdone:
	VZEROUPPER
	RET
