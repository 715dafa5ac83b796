#include "textflag.h"

// Logistic regression's three sweeps, four lanes at a time. Every lane holds
// one independent sum or one row's value and repeats the Go loop's
// operations in the loop's order: VMULPD then VADDPD, each rounding once as
// MULSD and ADDSD do, never an FMA; VDIVPD rounds as DIVSD does. No sum is
// split across lanes.

DATA sweepconst<>+0(SB)/8, $0x8000000000000000
DATA sweepconst<>+8(SB)/8, $0x8000000000000000
DATA sweepconst<>+16(SB)/8, $0x8000000000000000
DATA sweepconst<>+24(SB)/8, $0x8000000000000000
DATA sweepconst<>+32(SB)/8, $1.0
DATA sweepconst<>+40(SB)/8, $1.0
DATA sweepconst<>+48(SB)/8, $1.0
DATA sweepconst<>+56(SB)/8, $1.0
GLOBL sweepconst<>(SB), RODATA|NOPTR, $64

#define SIGN 0
#define ONE 32

// func dotsAVX(u, w, cells []float64, n int)
//
// Lanes are rows: Y0–Y3 hold the u of sixteen rows across every column,
// four independent add chains; then Y0 alone for groups of four.
TEXT ·dotsAVX(SB), NOSPLIT, $0-80
	MOVQ u_base+0(FP), DI
	MOVQ u_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	MOVQ w_len+32(FP), R8
	MOVQ cells_base+48(FP), BX
	MOVQ n+72(FP), DX
	SHLQ $3, DX            // the column stride in bytes
	ANDQ $-4, CX           // the rows in whole groups of four
	XORQ AX, AX            // the next group's first row

rows16:
	LEAQ   16(AX), R9
	CMPQ   R9, CX
	JGT    rows4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (BX)(AX*8), R10 // column 0 at row AX
	MOVQ   SI, R11
	MOVQ   R8, R12

cols16:
	VBROADCASTSD (R11), Y4
	VMULPD       (R10), Y4, Y5
	VMULPD       32(R10), Y4, Y6
	VMULPD       64(R10), Y4, Y7
	VMULPD       96(R10), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, R11
	ADDQ         DX, R10
	DECQ         R12
	JNZ          cols16
	VMOVUPD      Y0, (DI)(AX*8)
	VMOVUPD      Y1, 32(DI)(AX*8)
	VMOVUPD      Y2, 64(DI)(AX*8)
	VMOVUPD      Y3, 96(DI)(AX*8)
	MOVQ         R9, AX
	JMP          rows16

rows4:
	CMPQ   AX, CX
	JGE    dotsdone
	VXORPD Y0, Y0, Y0
	LEAQ   (BX)(AX*8), R10
	MOVQ   SI, R11
	MOVQ   R8, R12

cols4:
	VBROADCASTSD (R11), Y4
	VMULPD       (R10), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, R11
	ADDQ         DX, R10
	DECQ         R12
	JNZ          cols4
	VMOVUPD      Y0, (DI)(AX*8)
	ADDQ         $4, AX
	JMP          rows4

dotsdone:
	VZEROUPPER
	RET

// GRADSTEP adds rows i and i+1 of one group of four columns, whose rows i
// and i+1 sit at c0–c3, to the group's accumulator acc. Columns 0 and 2,
// then 1 and 3, are joined into one register each; the unpacks turn them
// into the row-i vector and the row-i+1 vector. Row i is added first.
#define GRADSTEP(c0, c1, c2, c3, acc) \
	VMOVUPD     c0, X4; \
	VINSERTF128 $1, c2, Y4, Y4; \
	VMOVUPD     c1, X5; \
	VINSERTF128 $1, c3, Y5, Y5; \
	VUNPCKLPD   Y5, Y4, Y6; \
	VUNPCKHPD   Y5, Y4, Y7; \
	VMULPD      Y14, Y6, Y6; \
	VADDPD      Y6, acc, acc; \
	VMULPD      Y15, Y7, Y7; \
	VADDPD      Y7, acc, acc

// func gradsAVX(grad, x, err *float64, pairs, stride, groups, pad1, pad2, pad3 int)
//
// Lanes are columns: Y0–Y2 hold the sums of up to three groups of four
// columns, three independent add chains, each lane in row order. SI, R8 and
// R9 walk the groups' first columns down the rows; the other columns of a
// full group are stride (DX), 2·stride and 3·stride (R10) further on, those
// of the last group pad1–pad3 (R11–R13).
TEXT ·gradsAVX(SB), NOSPLIT, $0-72
	MOVQ   x+8(FP), SI
	MOVQ   err+16(FP), BX
	MOVQ   pairs+24(FP), CX
	MOVQ   stride+32(FP), DX
	MOVQ   groups+40(FP), AX
	MOVQ   pad1+48(FP), R11
	MOVQ   pad2+56(FP), R12
	MOVQ   pad3+64(FP), R13
	LEAQ   (DX)(DX*2), R10
	LEAQ   (SI)(DX*4), R8
	LEAQ   (R8)(DX*4), R9
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	CMPQ   AX, $2
	JLT    one
	JEQ    two

three:
	VBROADCASTSD (BX), Y14
	VBROADCASTSD 8(BX), Y15
	GRADSTEP((SI), (SI)(DX*1), (SI)(DX*2), (SI)(R10*1), Y0)
	GRADSTEP((R8), (R8)(DX*1), (R8)(DX*2), (R8)(R10*1), Y1)
	GRADSTEP((R9), (R9)(R11*1), (R9)(R12*1), (R9)(R13*1), Y2)
	ADDQ         $16, SI
	ADDQ         $16, R8
	ADDQ         $16, R9
	ADDQ         $16, BX
	DECQ         CX
	JNZ          three
	JMP          store

two:
	VBROADCASTSD (BX), Y14
	VBROADCASTSD 8(BX), Y15
	GRADSTEP((SI), (SI)(DX*1), (SI)(DX*2), (SI)(R10*1), Y0)
	GRADSTEP((R8), (R8)(R11*1), (R8)(R12*1), (R8)(R13*1), Y1)
	ADDQ         $16, SI
	ADDQ         $16, R8
	ADDQ         $16, BX
	DECQ         CX
	JNZ          two
	JMP          store

one:
	VBROADCASTSD (BX), Y14
	VBROADCASTSD 8(BX), Y15
	GRADSTEP((SI), (SI)(R11*1), (SI)(R12*1), (SI)(R13*1), Y0)
	ADDQ         $16, SI
	ADDQ         $16, BX
	DECQ         CX
	JNZ          one

store:
	MOVQ    grad+0(FP), DI
	VMOVUPD Y0, (DI)
	CMPQ    AX, $2
	JLT     gradsdone
	VMOVUPD Y1, 32(DI)
	JEQ     gradsdone
	VMOVUPD Y2, 64(DI)

gradsdone:
	VZEROUPPER
	RET

// func negAbsAVX(dst, src []float64)
//
// −|x| is x with its sign bit set.
TEXT ·negAbsAVX(SB), NOSPLIT, $0-48
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), CX
	ANDQ    $-4, CX
	XORQ    AX, AX
	VMOVUPD sweepconst<>+SIGN(SB), Y1

negloop:
	CMPQ    AX, CX
	JGE     negdone
	VORPD   (SI)(AX*8), Y1, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     negloop

negdone:
	VZEROUPPER
	RET

// func logisticErrsAVX(u, e, y []float64)
//
// Lanes are rows. The blend on u's sign bit picks e or 1, exactly the
// numerator logistic's sign-bit mask picks; then num / (1 + e) − y.
TEXT ·logisticErrsAVX(SB), NOSPLIT, $0-72
	MOVQ    u_base+0(FP), DI
	MOVQ    u_len+8(FP), CX
	MOVQ    e_base+24(FP), SI
	MOVQ    y_base+48(FP), BX
	ANDQ    $-4, CX
	XORQ    AX, AX
	VMOVUPD sweepconst<>+ONE(SB), Y3

logloop:
	CMPQ      AX, CX
	JGE       logdone
	VMOVUPD   (DI)(AX*8), Y0
	VMOVUPD   (SI)(AX*8), Y1
	VBLENDVPD Y0, Y1, Y3, Y2     // e where u's sign bit is set, else 1
	VADDPD    Y1, Y3, Y1         // 1 + e
	VDIVPD    Y1, Y2, Y2
	VSUBPD    (BX)(AX*8), Y2, Y2
	VMOVUPD   Y2, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       logloop

logdone:
	VZEROUPPER
	RET
