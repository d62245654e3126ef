//go:build amd64

#include "textflag.h"

// func pairEpoch6(a *pairArgs)
//
// One full SGD sweep (one epoch) over the CSR-laid common prefix with
// rank-6 factors, two independent surfaces packed per 128-bit lane.
// Entry order: rows outer, each row's entries in column order —
// exactly trainSerial's. Every arithmetic step reproduces the serial
// sweep's association (the dot accumulates left-to-right from zero;
// factor updates read the pre-update qk/pk on both right-hand sides),
// so each lane is bit-identical to its own scalar run.
//
// Row and column blocks are 112 bytes: six factor pairs, then the bias
// pair at +96. Register map: SI=row block R9=column blocks R12=vals
// R11=offs R15=offs walker R10=rowPtr R13=rows left DX=row's end in
// offs BX=entry's column block; X12/X13/X14 = mu/eta/lam pairs;
// X0–X5 = the current row's six factor pairs and X6 its bias pair,
// resident across the row's entries.
TEXT ·pairEpoch6(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ 0(DI), SI          // row
	MOVQ 8(DI), R9          // col
	MOVQ 16(DI), R12        // vals
	MOVQ 24(DI), R11        // offs
	MOVQ 32(DI), R10        // rowPtr
	MOVQ 40(DI), R13        // nrows
	VMOVUPD 48(DI), X12     // mu pair
	VMOVUPD 64(DI), X13     // eta pair
	VMOVUPD 80(DI), X14     // lam pair
	MOVQ R11, R15

rowloop:
	TESTQ R13, R13
	JZ done
	VMOVUPD 0(SI), X0
	VMOVUPD 16(SI), X1
	VMOVUPD 32(SI), X2
	VMOVUPD 48(SI), X3
	VMOVUPD 64(SI), X4
	VMOVUPD 80(SI), X5
	VMOVUPD 96(SI), X6
	// row's end = offs + 4*rowPtr[r+1]; an empty row falls straight through
	MOVLQSX 4(R10), DX
	LEAQ (R11)(DX*4), DX

entryloop:
	CMPQ R15, DX
	JGE rowend
	MOVLQZX 0(R15), BX
	ADDQ R9, BX

	// dot: s = 0; s += qk*pk, serial add order as dotf
	VXORPD X7, X7, X7
	VMULPD 0(BX), X0, X8
	VADDPD X8, X7, X7
	VMULPD 16(BX), X1, X8
	VADDPD X8, X7, X7
	VMULPD 32(BX), X2, X8
	VADDPD X8, X7, X7
	VMULPD 48(BX), X3, X8
	VADDPD X8, X7, X7
	VMULPD 64(BX), X4, X8
	VADDPD X8, X7, X7
	VMULPD 80(BX), X5, X8
	VADDPD X8, X7, X7

	// err = v - (((mu + rb) + cb) + dot)
	VMOVUPD 96(BX), X10
	VADDPD X6, X12, X8
	VADDPD X10, X8, X8
	VADDPD X7, X8, X8
	VMOVUPD 0(R12), X9
	VSUBPD X8, X9, X9       // X9 = err

	// rb += eta * (err - lam*rb)
	VMULPD X6, X14, X8
	VSUBPD X8, X9, X8
	VMULPD X8, X13, X8
	VADDPD X8, X6, X6

	// cb += eta * (err - lam*cb)
	VMULPD X10, X14, X8
	VSUBPD X8, X9, X8
	VMULPD X8, X13, X8
	VADDPD X8, X10, X10
	VMOVUPD X10, 96(BX)

	// factor updates, k = 0..5:
	//   qk += eta*(err*pk - lam*qk); pk += eta*(err*qk - lam*pk)
	// using old qk/pk on both right-hand sides.
#define FUPD(QK, OFF) \
	VMOVUPD OFF(BX), X10  \
	VMULPD X10, X9, X8    \
	VMULPD QK, X14, X11   \
	VSUBPD X11, X8, X8    \
	VMULPD X8, X13, X8    \
	VMULPD QK, X9, X11    \
	VMULPD X10, X14, X15  \
	VSUBPD X15, X11, X11  \
	VMULPD X11, X13, X11  \
	VADDPD X8, QK, QK     \
	VADDPD X11, X10, X10  \
	VMOVUPD X10, OFF(BX)

	FUPD(X0, 0)
	FUPD(X1, 16)
	FUPD(X2, 32)
	FUPD(X3, 48)
	FUPD(X4, 64)
	FUPD(X5, 80)

	ADDQ $4, R15
	ADDQ $16, R12
	JMP entryloop

rowend:
	VMOVUPD X0, 0(SI)
	VMOVUPD X1, 16(SI)
	VMOVUPD X2, 32(SI)
	VMOVUPD X3, 48(SI)
	VMOVUPD X4, 64(SI)
	VMOVUPD X5, 80(SI)
	VMOVUPD X6, 96(SI)
	ADDQ $112, SI
	ADDQ $4, R10
	DECQ R13
	JMP rowloop

done:
	RET

// func cpuHasAVX() bool
//
// CPUID.1:ECX must advertise AVX (bit 28) and OSXSAVE (bit 27), and
// XCR0 must have the SSE and AVX state bits (1 and 2) enabled by the
// OS, before VEX-encoded instructions are legal.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, BX
	ANDL $(1<<28 | 1<<27), BX
	CMPL BX, $(1<<28 | 1<<27)
	JNE notavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE notavx
	MOVB $1, ret+0(FP)
	RET
notavx:
	MOVB $0, ret+0(FP)
	RET
