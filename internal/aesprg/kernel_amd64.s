//go:build !purego

#include "textflag.h"

// The batched AES-128 kernel behind every AES call in aesprg. Eight
// independent blocks sit in X0..X7 and take each round together, so
// the AESENC latency of one block is hidden behind the other seven; a
// one-block loop runs the under-eight tail. X8 holds the current round
// key and X9 the input re-read for the MMO feed-forward.

// ROUND8 applies round key OFF(AX) with INSTR to all eight lanes.
#define ROUND8(INSTR, OFF) \
	MOVOU OFF(AX), X8; \
	INSTR X8, X0; INSTR X8, X1; INSTR X8, X2; INSTR X8, X3; \
	INSTR X8, X4; INSTR X8, X5; INSTR X8, X6; INSTR X8, X7

// ROUND1 applies round key OFF(AX) with INSTR to X0.
#define ROUND1(INSTR, OFF) \
	MOVOU OFF(AX), X8; \
	INSTR X8, X0

// FEED XORs input block OFF(SI) into R.
#define FEED(OFF, R) \
	MOVOU OFF(SI), X9; \
	PXOR  X9, R

// func encryptBlocks(rk *[176]byte, dst, src *block.Block, n int, mmo bool)
TEXT ·encryptBlocks(SB), NOSPLIT, $0-33
	MOVQ rk+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX
	MOVB mmo+32(FP), DX
	CMPQ CX, $8
	JB   tail

loop8:
	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	MOVOU 64(SI), X4
	MOVOU 80(SI), X5
	MOVOU 96(SI), X6
	MOVOU 112(SI), X7
	ROUND8(PXOR, 0)
	ROUND8(AESENC, 16)
	ROUND8(AESENC, 32)
	ROUND8(AESENC, 48)
	ROUND8(AESENC, 64)
	ROUND8(AESENC, 80)
	ROUND8(AESENC, 96)
	ROUND8(AESENC, 112)
	ROUND8(AESENC, 128)
	ROUND8(AESENC, 144)
	ROUND8(AESENCLAST, 160)
	TESTB DL, DL
	JZ    store8

	// Every input is re-read before the first store, so dst == src
	// is safe.
	FEED(0, X0)
	FEED(16, X1)
	FEED(32, X2)
	FEED(48, X3)
	FEED(64, X4)
	FEED(80, X5)
	FEED(96, X6)
	FEED(112, X7)

store8:
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)
	ADDQ  $128, SI
	ADDQ  $128, DI
	SUBQ  $8, CX
	CMPQ  CX, $8
	JAE   loop8

tail:
	TESTQ CX, CX
	JZ    done

loop1:
	MOVOU (SI), X0
	ROUND1(PXOR, 0)
	ROUND1(AESENC, 16)
	ROUND1(AESENC, 32)
	ROUND1(AESENC, 48)
	ROUND1(AESENC, 64)
	ROUND1(AESENC, 80)
	ROUND1(AESENC, 96)
	ROUND1(AESENC, 112)
	ROUND1(AESENC, 128)
	ROUND1(AESENC, 144)
	ROUND1(AESENCLAST, 160)
	TESTB DL, DL
	JZ    store1
	FEED(0, X0)

store1:
	MOVOU X0, (DI)
	ADDQ  $16, SI
	ADDQ  $16, DI
	DECQ  CX
	JNZ   loop1

done:
	RET

// func CPUID(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·CPUID(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func XGETBV() (xcr0 uint32)
TEXT ·XGETBV(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, xcr0+0(FP)
	RET
