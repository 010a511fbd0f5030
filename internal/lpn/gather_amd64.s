//go:build !purego

#include "textflag.h"

// The row kernels behind Code.EncodeBlocksSpans and EncodeBitsSpans.
// Each output row XORs the d input entries its indices name into an
// accumulator seeded with the row's w entry (zero when w is nil). SSE2
// and the scalar instructions used here are part of the amd64
// baseline, so there is no CPUID dispatch.
//
// The gathers are not bounds-checked: every index is < len(r) (or
// len(e)) by the invariant stated at gatherBlocks in gather.go.

// func gatherBlocksSSE2(out, w, r *block.Block, idx *uint32, rows, d int)
TEXT ·gatherBlocksSSE2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ r+16(FP), DX
	MOVQ idx+24(FP), BX
	MOVQ rows+32(FP), CX
	MOVQ d+40(FP), R8
	TESTQ CX, CX
	JZ    done

row:
	PXOR  X0, X0
	TESTQ SI, SI
	JZ    cols
	MOVOU (SI), X0
	ADDQ  $16, SI

cols:
	MOVQ  R8, R9
	TESTQ R9, R9
	JZ    store

col:
	MOVL  (BX), AX
	SHLQ  $4, AX
	MOVOU (DX)(AX*1), X1
	PXOR  X1, X0
	ADDQ  $4, BX
	DECQ  R9
	JNZ   col

store:
	MOVOU X0, (DI)
	ADDQ  $16, DI
	DECQ  CX
	JNZ   row

done:
	RET

// func gatherBitsSSE2(out, e *bool, idx *uint32, rows, d int)
TEXT ·gatherBitsSSE2(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ e+8(FP), DX
	MOVQ idx+16(FP), BX
	MOVQ rows+24(FP), CX
	MOVQ d+32(FP), R8
	TESTQ CX, CX
	JZ    done

row:
	XORL  AX, AX
	MOVQ  R8, R9
	TESTQ R9, R9
	JZ    store

col:
	MOVL    (BX), R10
	MOVBLZX (DX)(R10*1), R11
	XORL    R11, AX
	ADDQ    $4, BX
	DECQ    R9
	JNZ     col

store:
	MOVB AX, (DI)
	INCQ DI
	DECQ CX
	JNZ  row

done:
	RET
