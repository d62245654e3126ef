//go:build amd64 && !noasm

#include "textflag.h"

// The lane kernels: one full SGD sweep (one epoch) over a run of
// entries with rank-6 factors, two or four independent surfaces in the
// lanes of one 256-bit stream. Every arithmetic step reproduces the
// serial sweep's association (the dot accumulates left-to-right from
// zero; factor updates read the pre-update qk/pk on both right-hand
// sides), so each lane is bit-identical to its own scalar run.
//
// Row and column blocks are 224 bytes — seven 32-byte elements, six
// factors then the bias at +192, lane L's float64 at +8L of its
// element. Both kernels share the per-entry arithmetic (DOT6, ERRBIAS,
// FUPD); they differ in where a register's halves come from.
//
// quadEpoch6 sweeps a CSR-laid run in trainSerial's order — rows
// outer, each row's entries in column order — with all four lanes of
// one cell per register and the row's factors resident across its
// entries. dualEpoch6 sweeps a schedule of slots, each holding two
// different cells of one pair: the low half of every register is entry
// A's two lanes, the high half entry B's, each half loaded from (and
// stored back to) 16 bytes of its own row and column block, lanes 0–1
// or 2–3 as the caller aims the row and col bases. The two cells of a
// slot share no row and no column, and the schedule keeps each row's
// and each column's entries in their serial order, so every block sees
// exactly the update sequence of its own serial sweep.
//
// Scalar registers: DI=args R12=vals R13=rows or slots left; quad:
// SI=row block R9=column blocks R11=offs R15=offs walker R10=rowPtr
// DX=row's end in offs BX=entry's column block; dual: R9/R10=row and
// column bases R11=slot indices SI/R8=row blocks of entries A/B
// BX/CX=their column blocks. Vector names: vQ0–vQ5 the row factors and
// vQB the row bias; vMU/vETA/vLAM the per-lane constants; vDOT, vERR,
// vPK and vT0–vT2 per-entry scratch. CMUL, CLOAD and CSTORE reach the
// column elements; each kernel binds them to its own addressing.

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

// dot: s = 0; s += qk*pk, serial add order as dotf
#define DOT6 \
	VXORPD vDOT, vDOT, vDOT \
	CMUL(0, vQ0)            \
	VADDPD vT0, vDOT, vDOT  \
	CMUL(32, vQ1)           \
	VADDPD vT0, vDOT, vDOT  \
	CMUL(64, vQ2)           \
	VADDPD vT0, vDOT, vDOT  \
	CMUL(96, vQ3)           \
	VADDPD vT0, vDOT, vDOT  \
	CMUL(128, vQ4)          \
	VADDPD vT0, vDOT, vDOT  \
	CMUL(160, vQ5)          \
	VADDPD vT0, vDOT, vDOT

// err = v - (((mu + rb) + cb) + dot), then
// rb += eta * (err - lam*rb) and cb += eta * (err - lam*cb)
#define ERRBIAS \
	CLOAD(192)              \
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
	CSTORE(192)

// factor update k:
//   qk += eta*(err*pk - lam*qk); pk += eta*(err*qk - lam*pk)
// using old qk/pk on both right-hand sides.
#define FUPD(QK, OFF) \
	CLOAD(OFF)              \
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
	CSTORE(OFF)

// ENTRY6 is one entry's update, its column block(s) addressed by the
// C* macros, its values at 0(R12).
#define ENTRY6 \
	DOT6                    \
	ERRBIAS                 \
	FUPD(vQ0, 0)            \
	FUPD(vQ1, 32)           \
	FUPD(vQ2, 64)           \
	FUPD(vQ3, 96)           \
	FUPD(vQ4, 128)          \
	FUPD(vQ5, 160)

// Quad addressing: the whole 32-byte element at BX.
#define CMUL(OFF, QK) VMULPD OFF(BX), QK, vT0
#define CLOAD(OFF) VMOVUPD OFF(BX), vPK
#define CSTORE(OFF) VMOVUPD vPK, OFF(BX)

// func quadEpoch6(a *laneArgs)
//
// Four lanes of one cell per register, the row's factors resident
// across its entries. An empty row (rowPtr[r+1] == rowPtr[r]) falls
// straight through the entry loop. The sweep leaves live data in the
// upper halves of Y0–Y15; VZEROUPPER clears them before returning so
// the caller's legacy-SSE code neither stalls on the state transition
// nor carries a false dependency on the stale upper bits.
TEXT ·quadEpoch6(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ 0(DI), SI
	MOVQ 8(DI), R9
	MOVQ 16(DI), R12
	MOVQ 24(DI), R11
	MOVQ 32(DI), R10
	MOVQ 40(DI), R13
	VMOVUPD 48(DI), vMU
	VMOVUPD 80(DI), vETA
	VMOVUPD 112(DI), vLAM
	MOVQ R11, R15

rowloop:
	TESTQ R13, R13
	JZ rowsdone
	VMOVUPD 0(SI), vQ0
	VMOVUPD 32(SI), vQ1
	VMOVUPD 64(SI), vQ2
	VMOVUPD 96(SI), vQ3
	VMOVUPD 128(SI), vQ4
	VMOVUPD 160(SI), vQ5
	VMOVUPD 192(SI), vQB
	MOVLQSX 4(R10), DX
	LEAQ (R11)(DX*4), DX

entryloop:
	CMPQ R15, DX
	JGE rowend
	MOVLQZX 0(R15), BX
	ADDQ R9, BX
	ENTRY6
	ADDQ $4, R15
	ADDQ $32, R12
	JMP entryloop

rowend:
	VMOVUPD vQ0, 0(SI)
	VMOVUPD vQ1, 32(SI)
	VMOVUPD vQ2, 64(SI)
	VMOVUPD vQ3, 96(SI)
	VMOVUPD vQ4, 128(SI)
	VMOVUPD vQ5, 160(SI)
	VMOVUPD vQB, 192(SI)
	ADDQ $224, SI
	ADDQ $4, R10
	DECQ R13
	JMP rowloop

rowsdone:
	VZEROUPPER
	RET

#undef CMUL
#undef CLOAD
#undef CSTORE

// Dual addressing: entry A's 16 bytes at BX fill the low half, entry
// B's at CX the high half. A VEX.128 load zeroes the upper half it
// leaves, so VINSERTF128 never merges with stale bits.
#define CMUL(OFF, QK) \
	VMOVUPD OFF(BX), X8        \
	VINSERTF128 $1, OFF(CX), vT0, vT0 \
	VMULPD vT0, QK, vT0
#define CLOAD(OFF) \
	VMOVUPD OFF(BX), X10       \
	VINSERTF128 $1, OFF(CX), vPK, vPK
#define CSTORE(OFF) \
	VMOVUPD X10, OFF(BX)       \
	VEXTRACTF128 $1, vPK, OFF(CX)

// RLOAD and RSTORE move row element OFF of entries A (SI) and B (R8)
// between memory and the halves of Y, whose low half is X.
#define RLOAD(X, Y, OFF) \
	VMOVUPD OFF(SI), X         \
	VINSERTF128 $1, OFF(R8), Y, Y
#define RSTORE(X, Y, OFF) \
	VMOVUPD X, OFF(SI)         \
	VEXTRACTF128 $1, Y, OFF(R8)

// ROWS points SI and R8 at the row blocks of the packed row indices in
// DX: A's in the low word, B's in the high.
#define ROWS \
	MOVWQZX DX, SI          \
	IMUL3Q $224, SI, SI     \
	ADDQ R9, SI             \
	MOVL DX, R8             \
	SHRL $16, R8            \
	IMUL3Q $224, R8, R8     \
	ADDQ R9, R8

#define RLOAD7 \
	RLOAD(X0, vQ0, 0)       \
	RLOAD(X1, vQ1, 32)      \
	RLOAD(X2, vQ2, 64)      \
	RLOAD(X3, vQ3, 96)      \
	RLOAD(X4, vQ4, 128)     \
	RLOAD(X5, vQ5, 160)     \
	RLOAD(X6, vQB, 192)

#define RSTORE7 \
	RSTORE(X0, vQ0, 0)      \
	RSTORE(X1, vQ1, 32)     \
	RSTORE(X2, vQ2, 64)     \
	RSTORE(X3, vQ3, 96)     \
	RSTORE(X4, vQ4, 128)    \
	RSTORE(X5, vQ5, 160)    \
	RSTORE(X6, vQB, 192)

// func dualEpoch6(a *laneArgs)
//
// Two cells of one pair per register, a slot at a time. Per slot the
// indices are four uint16s — rows of A and B, then columns of A and B —
// scaled to 224-byte blocks; the values are A's two lanes then B's.
// The two rows stay in registers while consecutive slots name the same
// pair of rows, and are stored back when the pair changes and at the
// end.
TEXT ·dualEpoch6(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ 0(DI), R9
	MOVQ 8(DI), R10
	MOVQ 16(DI), R12
	MOVQ 24(DI), R11
	MOVQ 40(DI), R13
	VMOVUPD 48(DI), vMU
	VMOVUPD 80(DI), vETA
	VMOVUPD 112(DI), vLAM
	TESTQ R13, R13
	JZ slotsdone
	MOVL 0(R11), DX
	ROWS
	RLOAD7

slotloop:
	MOVWQZX 4(R11), BX
	IMUL3Q $224, BX, BX
	ADDQ R10, BX
	MOVWQZX 6(R11), CX
	IMUL3Q $224, CX, CX
	ADDQ R10, CX
	ENTRY6
	ADDQ $8, R11
	ADDQ $32, R12
	DECQ R13
	JZ slotsend
	MOVL 0(R11), AX
	CMPL AX, DX
	JEQ slotloop
	RSTORE7
	MOVL AX, DX
	ROWS
	RLOAD7
	JMP slotloop

slotsend:
	RSTORE7

slotsdone:
	VZEROUPPER
	RET
