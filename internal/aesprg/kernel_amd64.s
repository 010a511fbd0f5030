//go:build !purego

#include "textflag.h"

// The batched AES-128 kernel behind every AES call in aesprg, in two
// arms. The VAES arm (when ·vaes is set) holds sixteen independent
// blocks, two per YMM register in Y0..Y7, and takes each round on all
// of them with one VEX-encoded VAESENC per register; Y8 holds the
// round key broadcast to both halves. The AES-NI arm holds eight in
// X0..X7, so the AESENC latency of one block is hidden behind the other
// seven, and a one-block loop runs the under-eight tail. X8 holds the
// current round key and X9 the input re-read for the MMO feed-forward.
// The VAES arm runs whole sixteen-block passes and leaves the rest to
// the AES-NI arm, after a VZEROUPPER: a legacy-SSE instruction with the
// upper YMM halves dirty costs a state transition.

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

// ROUND16 applies round key OFF(AX) with the VEX instruction INSTR to
// all sixteen blocks in Y0..Y7.
#define ROUND16(INSTR, OFF) \
	VBROADCASTI128 OFF(AX), Y8; \
	INSTR Y8, Y0, Y0; INSTR Y8, Y1, Y1; INSTR Y8, Y2, Y2; INSTR Y8, Y3, Y3; \
	INSTR Y8, Y4, Y4; INSTR Y8, Y5, Y5; INSTR Y8, Y6, Y6; INSTR Y8, Y7, Y7

// ROUNDS16 applies rounds 1..10 to Y0..Y7.
#define ROUNDS16 \
	ROUND16(VAESENC, 16); \
	ROUND16(VAESENC, 32); \
	ROUND16(VAESENC, 48); \
	ROUND16(VAESENC, 64); \
	ROUND16(VAESENC, 80); \
	ROUND16(VAESENC, 96); \
	ROUND16(VAESENC, 112); \
	ROUND16(VAESENC, 128); \
	ROUND16(VAESENC, 144); \
	ROUND16(VAESENCLAST, 160)

// STORE16 writes Y0..Y7 to the sixteen blocks at DI.
#define STORE16 \
	VMOVDQU Y0, 0(DI); \
	VMOVDQU Y1, 32(DI); \
	VMOVDQU Y2, 64(DI); \
	VMOVDQU Y3, 96(DI); \
	VMOVDQU Y4, 128(DI); \
	VMOVDQU Y5, 160(DI); \
	VMOVDQU Y6, 192(DI); \
	VMOVDQU Y7, 224(DI)

// func encryptBlocks(rk *[176]byte, dst, src *block.Block, n int, mmo bool)
TEXT ·encryptBlocks(SB), NOSPLIT, $0-33
	MOVQ rk+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX
	MOVB mmo+32(FP), DX
	CMPB ·vaes(SB), $0
	JEQ  sse
	CMPQ CX, $16
	JB   sse

loop16:
	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VMOVDQU 128(SI), Y4
	VMOVDQU 160(SI), Y5
	VMOVDQU 192(SI), Y6
	VMOVDQU 224(SI), Y7
	ROUND16(VPXOR, 0)
	ROUNDS16
	TESTB DL, DL
	JZ    store16

	// As below, every input is re-read before the first store.
	VPXOR 0(SI), Y0, Y0
	VPXOR 32(SI), Y1, Y1
	VPXOR 64(SI), Y2, Y2
	VPXOR 96(SI), Y3, Y3
	VPXOR 128(SI), Y4, Y4
	VPXOR 160(SI), Y5, Y5
	VPXOR 192(SI), Y6, Y6
	VPXOR 224(SI), Y7, Y7

store16:
	STORE16
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $16, CX
	CMPQ CX, $16
	JAE  loop16
	VZEROUPPER

sse:
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

// CTR writes counter block Y9 XOR round key 0 (in Y8) into R, then
// steps both of Y9's counters by two.
#define CTR(R) \
	VPXOR  Y8, Y9, R; \
	VPADDQ Y10, Y9, Y9

// func ctrVAES(rk *[176]byte, dst *block.Block, ctr uint64, n int)
//
// The VAES arm in counter mode: dst[i] = AES(LE64(ctr+i) ‖ 0^64) for
// the n&^15 first blocks, in sixteen-block passes. Y9 holds the next
// two counter blocks, (ctr+2j, 0) and (ctr+2j+1, 0) as qword lanes,
// and Y10 the step (2, 0, 2, 0): counters never touch memory, and
// VPADDQ wraps each at 2^64 as a uint64 does.
TEXT ·ctrVAES(SB), NOSPLIT, $0-32
	MOVQ rk+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ n+24(FP), CX
	SHRQ $4, CX
	JZ   done
	VMOVQ       ctr+16(FP), X9
	VINSERTI128 $1, X9, Y9, Y9
	VPADDQ      ·ctrLane<>(SB), Y9, Y9
	VMOVDQU     ·ctrStep<>(SB), Y10

loop:
	VBROADCASTI128 0(AX), Y8
	CTR(Y0)
	CTR(Y1)
	CTR(Y2)
	CTR(Y3)
	CTR(Y4)
	CTR(Y5)
	CTR(Y6)
	CTR(Y7)
	ROUNDS16
	STORE16
	ADDQ $256, DI
	DECQ CX
	JNZ  loop
	VZEROUPPER

done:
	RET

// ctrLane offsets the high half's counter by one: (0, 0, 1, 0).
GLOBL ·ctrLane<>(SB), NOPTR|RODATA, $32
DATA ·ctrLane<>+0(SB)/8, $0
DATA ·ctrLane<>+8(SB)/8, $0
DATA ·ctrLane<>+16(SB)/8, $1
DATA ·ctrLane<>+24(SB)/8, $0

// ctrStep advances both counters by one register's two blocks.
GLOBL ·ctrStep<>(SB), NOPTR|RODATA, $32
DATA ·ctrStep<>+0(SB)/8, $2
DATA ·ctrStep<>+8(SB)/8, $0
DATA ·ctrStep<>+16(SB)/8, $2
DATA ·ctrStep<>+24(SB)/8, $0

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (xcr0 uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, xcr0+0(FP)
	RET
