#include "textflag.h"

// AVX-512F kernels for the direct-mode admission loop (kernels_amd64.go).
// Every lane performs the scalar loop's operation on one row (or, in
// columnSumsAVX512, on one column), in the scalar loop's order, so results
// are bit-identical to the Go loops in bitmatrix.go and selectbit.go.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// SCORE8 writes dst[off/8 : off/8+8] = base + (bit ? one : zero) into Z0 and
// memory for the next 8 rows, whose bits are the low byte of R8, and shifts
// R8 down to the following 8 rows.
#define SCORE8(off) \
	KMOVW R8, K1 \
	SHRQ $8, R8 \
	VMOVUPD off(SI), Z0 \
	VBLENDMPD Z31, Z30, K1, Z1 \
	VADDPD Z1, Z0, Z0 \
	VMOVUPD Z0, off(DI)

// COUNT8 is SCORE8 plus hits (R9) += #{score > tau (Z29)}.
#define COUNT8(off) \
	SCORE8(off) \
	VCMPPD $0x1e, Z29, Z0, K2 \
	KMOVW K2, AX \
	POPCNTL AX, AX \
	ADDQ AX, R9

// func addCountAVX512(dst, base *float64, words *uint64, n int, zero, one, tau float64) (hits int)
TEXT ·addCountAVX512(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ base+8(FP), SI
	MOVQ words+16(FP), BX
	MOVQ n+24(FP), CX
	VBROADCASTSD zero+32(FP), Z30
	VBROADCASTSD one+40(FP), Z31
	VBROADCASTSD tau+48(FP), Z29
	XORQ R9, R9
	TESTQ CX, CX
	JZ countdone

countword:
	MOVQ (BX), R8
	COUNT8(0)
	COUNT8(64)
	COUNT8(128)
	COUNT8(192)
	COUNT8(256)
	COUNT8(320)
	COUNT8(384)
	COUNT8(448)
	ADDQ $512, SI
	ADDQ $512, DI
	ADDQ $8, BX
	DECQ CX
	JNZ countword

countdone:
	MOVQ R9, hits+56(FP)
	VZEROUPPER
	RET

// BAND8 is SCORE8 plus below (R9) += #{score < lo (Z28)} and the scores with
// lo ≤ score ≤ hi (Z29) compressed, in lane order, straight to band[nb:]
// (R10, R11). The band mask is "not below lo" and "at most hi": KANDNW
// clears the below-lo lanes from the ≤ hi compare, which a NaN score fails
// as it fails both original bounds. Only the kept lanes are written, so the
// store neither splits a cache line per group nor writes past band[nb+kept].
#define BAND8(off) \
	SCORE8(off) \
	VCMPPD $0x11, Z28, Z0, K2 \
	VCMPPD $0x12, Z29, Z0, K3 \
	KANDNW K3, K2, K3 \
	VCOMPRESSPD Z0, K3, (R10)(R11*8) \
	KMOVW K2, AX \
	POPCNTL AX, AX \
	ADDQ AX, R9 \
	KMOVW K3, AX \
	POPCNTL AX, AX \
	ADDQ AX, R11

// func addBandAVX512(dst, base, band *float64, words *uint64, n int, zero, one, lo, hi float64) (below, nb int)
TEXT ·addBandAVX512(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ base+8(FP), SI
	MOVQ band+16(FP), R10
	MOVQ words+24(FP), BX
	MOVQ n+32(FP), CX
	VBROADCASTSD zero+40(FP), Z30
	VBROADCASTSD one+48(FP), Z31
	VBROADCASTSD lo+56(FP), Z28
	VBROADCASTSD hi+64(FP), Z29
	XORQ R9, R9
	XORQ R11, R11
	TESTQ CX, CX
	JZ kthdone

kthword:
	MOVQ (BX), R8
	BAND8(0)
	BAND8(64)
	BAND8(128)
	BAND8(192)
	BAND8(256)
	BAND8(320)
	BAND8(384)
	BAND8(448)
	ADDQ $512, SI
	ADDQ $512, DI
	ADDQ $8, BX
	DECQ CX
	JNZ kthword

kthdone:
	MOVQ R9, below+72(FP)
	MOVQ R11, nb+80(FP)
	VZEROUPPER
	RET

// ROW2 adds one row to both column groups: each lane tests its word's low
// bit (Z0 group A, Z1 group B), shifts the word down a row, and adds the
// selected representative to its running sum (Z16, Z17).
#define ROW2 \
	VPTESTMQ Z27, Z0, K2 \
	VPTESTMQ Z27, Z1, K3 \
	VPSRLQ $1, Z0, Z0 \
	VPSRLQ $1, Z1, Z1 \
	VBLENDMPD Z21, Z20, K2, Z2 \
	VBLENDMPD Z23, Z22, K3, Z3 \
	VADDPD Z2, Z16, Z16 \
	VADDPD Z3, Z17, Z17

// func columnSumsAVX512(sums, zero, one *float64, bits *uint64, offs *int, n, ja, jb, keep int)
TEXT ·columnSumsAVX512(SB), NOSPLIT, $0-72
	MOVQ sums+0(FP), DI
	MOVQ zero+8(FP), SI
	MOVQ one+16(FP), DX
	MOVQ bits+24(FP), BX
	MOVQ offs+32(FP), R8
	MOVQ n+40(FP), CX
	MOVQ ja+48(FP), R9
	MOVQ jb+56(FP), R10

	// Representatives of columns ja..ja+7 (A) and jb..jb+7 (B).
	VMOVUPD (SI)(R9*8), Z20
	VMOVUPD (DX)(R9*8), Z21
	VMOVUPD (SI)(R10*8), Z22
	VMOVUPD (DX)(R10*8), Z23

	// Gather indices: lane l reads word offs[l] + w (A), offs[8+l] + w (B).
	VMOVDQU64 (R8), Z25
	VMOVDQU64 64(R8), Z26

	MOVQ $1, AX
	VPBROADCASTQ AX, Z27
	// Each lane's sum runs on from the sums handed in; keep selects the
	// lanes stored back.
	VMOVUPD (DI)(R9*8), Z16
	VMOVUPD (DI)(R10*8), Z17
	MOVQ keep+64(FP), AX
	KMOVW AX, K4
	SHRQ $8, AX
	KMOVW AX, K5
	TESTQ CX, CX
	JZ sumsdone

sumsword:
	KXNORW K1, K1, K1
	VPGATHERQQ (BX)(Z25*8), K1, Z0
	KXNORW K1, K1, K1
	VPGATHERQQ (BX)(Z26*8), K1, Z1
	MOVQ $16, DX

sumsrows:
	ROW2
	ROW2
	ROW2
	ROW2
	DECQ DX
	JNZ sumsrows
	ADDQ $8, BX
	DECQ CX
	JNZ sumsword

sumsdone:
	VMOVUPD Z16, K4, (DI)(R9*8)
	VMOVUPD Z17, K5, (DI)(R10*8)
	VZEROUPPER
	RET
