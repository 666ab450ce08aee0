#include "textflag.h"

// func tileErrorL1RowKernel(a, tgtPix []uint8, stride int, out []Cost)
//
// For each of the len(out) targets: the staged input block a (stride bytes)
// against the target's block at tgtPix[v*stride:], 32 bytes per iteration as
// two unaligned 16-byte loads per side and two PSADBW lanes. Each PSADBW
// leaves two 16-bit partial sums (≤ 8·255) in the low words of its 64-bit
// halves; PADDQ accumulates them in 64-bit lanes, so no flush is needed at
// any stride. One PSHUFD+PADDQ horizontal add yields the cost, stored as
// its low 32 bits — the same truncation as Cost(int64) in the Go kernels.
// Requires stride > 0, stride%32 == 0 (checked by tileErrorL1Row).
TEXT ·tileErrorL1RowKernel(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ tgtPix_base+24(FP), DI
	MOVQ stride+48(FP), CX
	MOVQ out_base+56(FP), DX
	MOVQ out_len+64(FP), R8
	TESTQ R8, R8
	JZ   done

target:
	PXOR X0, X0
	PXOR X1, X1
	XORQ AX, AX

chunk:
	MOVOU  (SI)(AX*1), X2
	MOVOU  16(SI)(AX*1), X3
	MOVOU  (DI)(AX*1), X4
	MOVOU  16(DI)(AX*1), X5
	PSADBW X4, X2
	PSADBW X5, X3
	PADDQ  X2, X0
	PADDQ  X3, X1
	ADDQ   $32, AX
	CMPQ   AX, CX
	JB     chunk

	PADDQ  X1, X0
	PSHUFD $0x4e, X0, X1
	PADDQ  X1, X0
	MOVQ   X0, BX
	MOVL   BX, (DX)
	ADDQ   $4, DX
	ADDQ   CX, DI
	DECQ   R8
	JNZ    target

done:
	RET
