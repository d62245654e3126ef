//go:build amd64 && !noasm

#include "textflag.h"

// The lane kernels: one full SGD sweep (one epoch) over a CSR-laid
// run of entries with rank-6 factors, one independent surface per SIMD
// lane. Entry order: rows outer, each row's entries in column order —
// exactly trainSerial's. Every arithmetic step reproduces the serial
// sweep's association (the dot accumulates left-to-right from zero;
// factor updates read the pre-update qk/pk on both right-hand sides),
// so each lane is bit-identical to its own scalar run.
//
// One body assembles twice: pairEpoch6 binds the vector names below to
// X registers (two lanes), quadEpoch6 to Y registers (four lanes).
// Row and column blocks are 224 bytes either way — seven 32-byte
// elements, six factors then the bias at +192, lane L's float64 at +8L
// of its element — so the 128-bit kernel touches 16 bytes of each
// element and the caller aims it at lanes 0–1 or 2–3 through the row
// and col pointers. Only the values advance by kernel width: 16 or 32
// bytes per entry.
//
// Scalar registers: DI=args SI=row block R9=column blocks R12=vals
// R11=offs R15=offs walker R10=rowPtr R13=rows left DX=row's end in
// offs BX=entry's column block. Vector names: vQ0–vQ5 the current
// row's six factors and vQB its bias, resident across the row's
// entries; vMU/vETA/vLAM the per-lane constants; vDOT, vERR, vPK and
// vT0–vT2 per-entry scratch.

// dot: s = 0; s += qk*pk, serial add order as dotf
#define DOT6 \
	VXORPD vDOT, vDOT, vDOT \
	VMULPD 0(BX), vQ0, vT0  \
	VADDPD vT0, vDOT, vDOT  \
	VMULPD 32(BX), vQ1, vT0 \
	VADDPD vT0, vDOT, vDOT  \
	VMULPD 64(BX), vQ2, vT0 \
	VADDPD vT0, vDOT, vDOT  \
	VMULPD 96(BX), vQ3, vT0 \
	VADDPD vT0, vDOT, vDOT  \
	VMULPD 128(BX), vQ4, vT0 \
	VADDPD vT0, vDOT, vDOT  \
	VMULPD 160(BX), vQ5, vT0 \
	VADDPD vT0, vDOT, vDOT

// err = v - (((mu + rb) + cb) + dot), then
// rb += eta * (err - lam*rb) and cb += eta * (err - lam*cb)
#define ERRBIAS \
	VMOVUPD 192(BX), vPK    \
	VADDPD vQB, vMU, vT0    \
	VADDPD vPK, vT0, vT0    \
	VADDPD vDOT, vT0, vT0   \
	VMOVUPD 0(R12), vERR    \
	VSUBPD vT0, vERR, vERR  \
	VMULPD vQB, vLAM, vT0   \
	VSUBPD vT0, vERR, vT0   \
	VMULPD vT0, vETA, vT0   \
	VADDPD vT0, vQB, vQB    \
	VMULPD vPK, vLAM, vT0   \
	VSUBPD vT0, vERR, vT0   \
	VMULPD vT0, vETA, vT0   \
	VADDPD vT0, vPK, vPK    \
	VMOVUPD vPK, 192(BX)

// factor update k:
//   qk += eta*(err*pk - lam*qk); pk += eta*(err*qk - lam*pk)
// using old qk/pk on both right-hand sides.
#define FUPD(QK, OFF) \
	VMOVUPD OFF(BX), vPK    \
	VMULPD vPK, vERR, vT0   \
	VMULPD QK, vLAM, vT1    \
	VSUBPD vT1, vT0, vT0    \
	VMULPD vT0, vETA, vT0   \
	VMULPD QK, vERR, vT1    \
	VMULPD vPK, vLAM, vT2   \
	VSUBPD vT2, vT1, vT1    \
	VMULPD vT1, vETA, vT1   \
	VADDPD vT0, QK, QK      \
	VADDPD vT1, vPK, vPK    \
	VMOVUPD vPK, OFF(BX)

// EPOCH6 is the sweep, args in DI, falling out at its end with every
// row stored. VSTEP is the byte width of one entry's values. An empty
// row (rowPtr[r+1] == rowPtr[r]) falls straight through the entry loop.
#define EPOCH6(VSTEP) \
	MOVQ 0(DI), SI          \
	MOVQ 8(DI), R9          \
	MOVQ 16(DI), R12        \
	MOVQ 24(DI), R11        \
	MOVQ 32(DI), R10        \
	MOVQ 40(DI), R13        \
	VMOVUPD 48(DI), vMU     \
	VMOVUPD 80(DI), vETA    \
	VMOVUPD 112(DI), vLAM   \
	MOVQ R11, R15           \
rowloop:                    \
	TESTQ R13, R13          \
	JZ done                 \
	VMOVUPD 0(SI), vQ0      \
	VMOVUPD 32(SI), vQ1     \
	VMOVUPD 64(SI), vQ2     \
	VMOVUPD 96(SI), vQ3     \
	VMOVUPD 128(SI), vQ4    \
	VMOVUPD 160(SI), vQ5    \
	VMOVUPD 192(SI), vQB    \
	MOVLQSX 4(R10), DX      \
	LEAQ (R11)(DX*4), DX    \
entryloop:                  \
	CMPQ R15, DX            \
	JGE rowend              \
	MOVLQZX 0(R15), BX      \
	ADDQ R9, BX             \
	DOT6                    \
	ERRBIAS                 \
	FUPD(vQ0, 0)            \
	FUPD(vQ1, 32)           \
	FUPD(vQ2, 64)           \
	FUPD(vQ3, 96)           \
	FUPD(vQ4, 128)          \
	FUPD(vQ5, 160)          \
	ADDQ $4, R15            \
	ADDQ $VSTEP, R12        \
	JMP entryloop           \
rowend:                     \
	VMOVUPD vQ0, 0(SI)      \
	VMOVUPD vQ1, 32(SI)     \
	VMOVUPD vQ2, 64(SI)     \
	VMOVUPD vQ3, 96(SI)     \
	VMOVUPD vQ4, 128(SI)    \
	VMOVUPD vQ5, 160(SI)    \
	VMOVUPD vQB, 192(SI)    \
	ADDQ $224, SI           \
	ADDQ $4, R10            \
	DECQ R13                \
	JMP rowloop             \
done:

#define vQ0 X0
#define vQ1 X1
#define vQ2 X2
#define vQ3 X3
#define vQ4 X4
#define vQ5 X5
#define vQB X6
#define vDOT X7
#define vT0 X8
#define vERR X9
#define vPK X10
#define vT1 X11
#define vMU X12
#define vETA X13
#define vLAM X14
#define vT2 X15

// func pairEpoch6(a *laneArgs)
//
// Two lanes per 128-bit register. VEX.128 operations zero bits 128–255
// of their destination, so the upper halves are never left dirty and
// the Go code that follows (legacy-SSE scalar arithmetic) pays no
// AVX→SSE transition.
TEXT ·pairEpoch6(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	EPOCH6(16)
	RET

#undef vQ0
#undef vQ1
#undef vQ2
#undef vQ3
#undef vQ4
#undef vQ5
#undef vQB
#undef vDOT
#undef vT0
#undef vERR
#undef vPK
#undef vT1
#undef vMU
#undef vETA
#undef vLAM
#undef vT2

#define vQ0 Y0
#define vQ1 Y1
#define vQ2 Y2
#define vQ3 Y3
#define vQ4 Y4
#define vQ5 Y5
#define vQB Y6
#define vDOT Y7
#define vT0 Y8
#define vERR Y9
#define vPK Y10
#define vT1 Y11
#define vMU Y12
#define vETA Y13
#define vLAM Y14
#define vT2 Y15

// func quadEpoch6(a *laneArgs)
//
// Four lanes per 256-bit register. The sweep leaves live data in the
// upper halves of Y0–Y15; VZEROUPPER clears them before returning so
// the caller's legacy-SSE code neither stalls on the state transition
// nor carries a false dependency on the stale upper bits.
TEXT ·quadEpoch6(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	EPOCH6(32)
	VZEROUPPER
	RET
