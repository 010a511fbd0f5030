//go:build !purego

#include "textflag.h"

// The eight-lane ChaCha8 kernel behind PRG.ExpandLevel. Each YMM
// register holds one word of the 16-word ChaCha state across eight
// lanes, one parent per lane, so the rounds are the scalar core's
// quarter rounds with every operand eight wide. The structure follows
// the four-lane SSE core of the Go runtime's internal/chacha8rand.
//
// Only VEX-encoded instructions appear between the first YMM write and
// the VZEROUPPER before RET: one legacy-SSE instruction in between costs
// an AVX/SSE state transition per call.

// ROTL rotates the uint32s of R left by N, using the temporary T.
#define ROTL(N, R, T) \
	VPSLLD $(N), R, T; VPSRLD $(32-(N)), R, R; VPXOR T, R, R

// QR is the ChaCha quarter round on A, B, C, D; T is a temporary.
#define QR(A, B, C, D, T) \
	VPADDD B, A, A; VPXOR A, D, D; VPSHUFB ·rol16<>(SB), D, D; \
	VPADDD D, C, C; VPXOR C, B, B; ROTL(12, B, T); \
	VPADDD B, A, A; VPXOR A, D, D; VPSHUFB ·rol8<>(SB), D, D; \
	VPADDD D, C, C; VPXOR C, B, B; ROTL(7, B, T)

// TRANSPOSE transposes the 4x4 uint32 matrix whose rows are A, B, C, D
// inside each 128-bit half, using the temporary T. The rows come out
// in C, A, T, D.
#define TRANSPOSE(A, B, C, D, T) \
	VPUNPCKLDQ B, A, T; \
	VPUNPCKHDQ B, A, B; \
	VPUNPCKLDQ D, C, A; \
	VPUNPCKHDQ D, C, D; \
	VPUNPCKLQDQ A, T, C; \
	VPUNPCKHQDQ A, T, A; \
	VPUNPCKLQDQ D, B, T; \
	VPUNPCKHQDQ D, B, D

// CHILD writes child OFF/16 of all eight parents: A, B, C, D hold that
// child's four words across the lanes. Parent k's children start S*k
// bytes into DI. The XOR of the eight children is folded into the sum
// at OFF(BX). T is a temporary; XA..XD name the low halves of A..D.
#define CHILD(OFF, S, A, B, C, D, T, XA, XB, XC, XD) \
	TRANSPOSE(A, B, C, D, T); \
	VMOVDQU XC, (OFF)(DI); \
	VEXTRACTI128 $1, C, (4*(S)+(OFF))(DI); \
	VMOVDQU XA, (1*(S)+(OFF))(DI); \
	VEXTRACTI128 $1, A, (5*(S)+(OFF))(DI); \
	VEXTRACTI128 $0, T, (2*(S)+(OFF))(DI); \
	VEXTRACTI128 $1, T, (6*(S)+(OFF))(DI); \
	VMOVDQU XD, (3*(S)+(OFF))(DI); \
	VEXTRACTI128 $1, D, (7*(S)+(OFF))(DI); \
	VPXOR A, C, B; \
	VPXOR T, B, B; \
	VPXOR D, B, B; \
	VEXTRACTI128 $1, B, XA; \
	VPXOR XA, XB, XB; \
	VPXOR (OFF)(BX), XB, XB; \
	VMOVDQU XB, (OFF)(BX)

// SIGMA adds the ChaCha constants (state words 0..3) back into Y0..Y3.
#define SIGMA \
	VPBROADCASTD ·sigma<>+0(SB), Y15; VPADDD Y15, Y0, Y0; \
	VPBROADCASTD ·sigma<>+4(SB), Y15; VPADDD Y15, Y1, Y1; \
	VPBROADCASTD ·sigma<>+8(SB), Y15; VPADDD Y15, Y2, Y2; \
	VPBROADCASTD ·sigma<>+12(SB), Y15; VPADDD Y15, Y3, Y3

// KEY adds the saved key rows (the parents' words) back into A..D.
#define KEY(A, B, C, D) \
	VPADDD 0(SP), A, A; VPADDD 32(SP), B, B; VPADDD 64(SP), C, C; VPADDD 96(SP), D, D

// func chacha8x8AVX2(dst, src, sums *block.Block, arity int)
//
// Expands the eight parents src[0..8) with core call 0 into
// dst[k*arity+c] for lanes k and children c < arity (2 or 4), and XORs
// child c of every lane into sums[c]. All eight parents are loaded
// before the first store, so dst may overlap src.
//
// Frame: 0..127(SP) the key rows (state words 4..7, which equal 8..11),
// 128(SP) the spill slot of x4, 160(SP) the spill slot of x15.
TEXT ·chacha8x8AVX2(SB), NOSPLIT, $192-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ sums+16(FP), BX
	MOVQ arity+24(FP), CX

	// Parents k and k+4 share a register, then one in-half transpose
	// leaves parent word w of lane k in Y(4+w).
	VMOVDQU 0(SI), X5
	VINSERTI128 $1, 64(SI), Y5, Y5
	VMOVDQU 16(SI), X8
	VINSERTI128 $1, 80(SI), Y8, Y8
	VMOVDQU 32(SI), X4
	VINSERTI128 $1, 96(SI), Y4, Y4
	VMOVDQU 48(SI), X7
	VINSERTI128 $1, 112(SI), Y7, Y7
	TRANSPOSE(Y5, Y8, Y4, Y7, Y6)
	VMOVDQU Y4, 0(SP)
	VMOVDQU Y5, 32(SP)
	VMOVDQU Y6, 64(SP)
	VMOVDQU Y7, 96(SP)

	VPBROADCASTD ·sigma<>+0(SB), Y0
	VPBROADCASTD ·sigma<>+4(SB), Y1
	VPBROADCASTD ·sigma<>+8(SB), Y2
	VPBROADCASTD ·sigma<>+12(SB), Y3
	VMOVDQU Y4, Y8
	VMOVDQU Y5, Y9
	VMOVDQU Y6, Y10
	VMOVDQU Y7, Y11
	// Counter 0 and a zero nonce. x15 starts in its spill slot, so Y15
	// is the first temporary.
	VPXOR Y12, Y12, Y12
	VPXOR Y13, Y13, Y13
	VPXOR Y14, Y14, Y14
	VMOVDQU Y12, 160(SP)

	// Four double rounds. Sixteen state rows leave no register for the
	// rotation temporary, so x4 and x15 take turns in memory.
	MOVL $4, DX
loop:
	QR(Y0, Y4, Y8, Y12, Y15)
	VMOVDQU Y4, 128(SP)
	QR(Y1, Y5, Y9, Y13, Y15)
	VMOVDQU 160(SP), Y15
	QR(Y2, Y6, Y10, Y14, Y4)
	QR(Y3, Y7, Y11, Y15, Y4)

	QR(Y0, Y5, Y10, Y15, Y4)
	VMOVDQU Y15, 160(SP)
	QR(Y1, Y6, Y11, Y12, Y4)
	VMOVDQU 128(SP), Y4
	QR(Y2, Y7, Y8, Y13, Y15)
	QR(Y3, Y4, Y9, Y14, Y15)
	DECL DX
	JNZ  loop

	// Feed-forward and store. Words 12..15 started at zero, so only
	// words 0..11 take their input back.
	CMPQ CX, $4
	JEQ  four

	SIGMA
	CHILD(0, 32, Y0, Y1, Y2, Y3, Y15, X0, X1, X2, X3)
	KEY(Y4, Y5, Y6, Y7)
	CHILD(16, 32, Y4, Y5, Y6, Y7, Y15, X4, X5, X6, X7)
	VZEROUPPER
	RET

four:
	SIGMA
	CHILD(0, 64, Y0, Y1, Y2, Y3, Y15, X0, X1, X2, X3)
	KEY(Y4, Y5, Y6, Y7)
	CHILD(16, 64, Y4, Y5, Y6, Y7, Y15, X4, X5, X6, X7)
	KEY(Y8, Y9, Y10, Y11)
	CHILD(32, 64, Y8, Y9, Y10, Y11, Y15, X8, X9, X10, X11)
	VMOVDQU 160(SP), Y0
	CHILD(48, 64, Y12, Y13, Y14, Y0, Y15, X12, X13, X14, X0)
	VZEROUPPER
	RET

// The ChaCha constants "expand 32-byte k".
GLOBL ·sigma<>(SB), NOPTR|RODATA, $16
DATA ·sigma<>+0(SB)/4, $0x61707865
DATA ·sigma<>+4(SB)/4, $0x3320646e
DATA ·sigma<>+8(SB)/4, $0x79622d32
DATA ·sigma<>+12(SB)/4, $0x6b206574

// VPSHUFB masks rotating each uint32 left by 16 and by 8, in both
// 128-bit halves.
GLOBL ·rol16<>(SB), NOPTR|RODATA, $32
DATA ·rol16<>+0(SB)/8, $0x0504070601000302
DATA ·rol16<>+8(SB)/8, $0x0D0C0F0E09080B0A
DATA ·rol16<>+16(SB)/8, $0x0504070601000302
DATA ·rol16<>+24(SB)/8, $0x0D0C0F0E09080B0A

GLOBL ·rol8<>(SB), NOPTR|RODATA, $32
DATA ·rol8<>+0(SB)/8, $0x0605040702010003
DATA ·rol8<>+8(SB)/8, $0x0E0D0C0F0A09080B
DATA ·rol8<>+16(SB)/8, $0x0605040702010003
DATA ·rol8<>+24(SB)/8, $0x0E0D0C0F0A09080B
