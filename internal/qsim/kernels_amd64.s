#include "textflag.h"

// Constants of math/exp_amd64.s, each repeated across a 256-bit lane
// group so the kernel can use them as memory operands. The decimal
// literals are math's own, so the assembler rounds them to the same
// float64 bits.
#define QUAD(off, v) \
	DATA expc<>+(off)(SB)/8, v \
	DATA expc<>+(off+8)(SB)/8, v \
	DATA expc<>+(off+16)(SB)/8, v \
	DATA expc<>+(off+24)(SB)/8, v

QUAD(0, $1.4426950408889634073599246810018920)                  // LOG2E
QUAD(32, $0.69314718055966295651160180568695068359375)          // LN2U
QUAD(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
QUAD(96, $0.0625)
QUAD(128, $2.4801587301587301587e-5)
QUAD(160, $1.9841269841269841270e-4)
QUAD(192, $1.3888888888888888889e-3)
QUAD(224, $8.3333333333333333333e-3)
QUAD(256, $4.1666666666666666667e-2)
QUAD(288, $1.6666666666666666667e-1)
QUAD(320, $0.5)
QUAD(352, $1.0)
QUAD(384, $2.0)
QUAD(416, $-708.0) // expLo
QUAD(448, $709.0)  // expHi
QUAD(480, $1023)   // exponent bias, int64 lanes
GLOBL expc<>(SB), RODATA|NOPTR, $512

// func expAVX(dst, src *float64, n int) uint64
//
// Four lanes of math.Exp's avxfma branch per iteration, instruction
// for instruction: each scalar SD operation becomes its PD form, and
// CVTSD2SL/CVTSL2SD become VCVTPD2DQ/VCVTDQ2PD (same MXCSR rounding).
// The scalar code's range checks become one compare against
// [expLo, expHi], unordered-true so NaN lanes count as out of range;
// those lanes keep their input and set their bit in the result.
TEXT ·expAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), DX
	XORQ R8, R8 // out-of-range mask
	XORQ CX, CX // bit index of the current group
	SHRQ $2, DX
	JZ   expdone

exploop:
	VMOVUPD (SI), Y0
	VMOVAPD Y0, Y5
	VCMPPD  $0x09, expc<>+416(SB), Y0, Y6 // !(x >= expLo)
	VCMPPD  $0x06, expc<>+448(SB), Y0, Y7 // !(x <= expHi)
	VORPD   Y7, Y6, Y6
	VMOVMSKPD Y6, AX
	SHLQ    CX, AX
	ORQ     AX, R8

	// k = round(x·log2 e); x -= k·ln2 in two fused steps; x /= 16.
	VMULPD       expc<>+0(SB), Y0, Y1
	VCVTPD2DQY   Y1, X2
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD expc<>+32(SB), Y1, Y0
	VFNMADD231PD expc<>+64(SB), Y1, Y0
	VMULPD       expc<>+96(SB), Y0, Y0

	// Taylor series, then four squarings of (1+p) in the (p·(p+2)) form.
	VMOVUPD     expc<>+128(SB), Y3
	VFMADD213PD expc<>+160(SB), Y0, Y3
	VFMADD213PD expc<>+192(SB), Y0, Y3
	VFMADD213PD expc<>+224(SB), Y0, Y3
	VFMADD213PD expc<>+256(SB), Y0, Y3
	VFMADD213PD expc<>+288(SB), Y0, Y3
	VFMADD213PD expc<>+320(SB), Y0, Y3
	VFMADD213PD expc<>+352(SB), Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      expc<>+384(SB), Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      expc<>+384(SB), Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      expc<>+384(SB), Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      expc<>+384(SB), Y0, Y3
	VFMADD213PD expc<>+352(SB), Y3, Y0

	// Scale by 2^k, normal for every in-range lane.
	VPMOVSXDQ X2, Y4
	VPADDQ    expc<>+480(SB), Y4, Y4
	VPSLLQ    $52, Y4, Y4
	VMULPD    Y4, Y0, Y0

	VBLENDVPD Y6, Y5, Y0, Y0
	VMOVUPD   Y0, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	ADDQ      $4, CX
	DECQ      DX
	JNZ       exploop

expdone:
	VZEROUPPER
	MOVQ R8, ret+24(FP)
	RET

// func cpuHasAVX2FMA() bool
//
// CPUID.1:ECX must advertise FMA (bit 12), OSXSAVE (27) and AVX (28),
// CPUID.(7,0):EBX AVX2 (bit 5), and XCR0 must have the SSE and AVX
// state bits (1 and 2) enabled by the OS.
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  nofeat
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<28 | 1<<27 | 1<<12), CX
	CMPL CX, $(1<<28 | 1<<27 | 1<<12)
	JNE  nofeat
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  nofeat
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   nofeat
	MOVB $1, ret+0(FP)
	RET

nofeat:
	MOVB $0, ret+0(FP)
	RET

// func serveAVX(v *float64, groups int, ts, ms *float64, n int, svc float64)
//
// Per query: finish = max(t, v[0]) + svc·m, m overwritten with the
// sojourn finish − t, then replace-min v[i] = min(v[i+1],
// max(finish, v[i])) four slots at a time. MAXSD, MAXPD and MINPD
// return their second operand on NaN or on zeros of either sign;
// Step admits neither, and on everything else they equal Go's max and
// min. The right-shifted operand v[i+1:i+5] is built from this group
// and the next with a lane rotation and a blend rather than loaded
// unaligned: an unaligned load straddles two of the previous query's
// stores and cannot be forwarded from them. Each group's old values
// are loaded, or carried in a register, before its store, and no
// later group reads a stored slot, so the pass equals replaceMin's.
// All instructions are VEX-encoded: a legacy-SSE MOVSD with dirty
// upper YMM state costs a state transition per query.
TEXT ·serveAVX(SB), NOSPLIT, $0-48
	MOVQ  v+0(FP), DI
	MOVQ  groups+8(FP), R9
	MOVQ  ts+16(FP), SI
	MOVQ  ms+24(FP), DX
	MOVQ  n+32(FP), CX
	VMOVSD svc+40(FP), X7
	TESTQ CX, CX
	JZ    servedone

serveloop:
	VMOVSD (SI), X1
	VMAXSD (DI), X1, X3
	VMULSD (DX), X7, X4
	VADDSD X4, X3, X3
	VSUBSD X1, X3, X5
	VMOVSD X5, (DX)
	VBROADCASTSD X3, Y0
	MOVQ   DI, R10
	MOVQ   R9, R11
	VMOVUPD (R10), Y8
	VPERMPD $0x39, Y8, Y9

servegroup:
	VMOVUPD  32(R10), Y10
	VPERMPD  $0x39, Y10, Y11
	VBLENDPD $8, Y11, Y9, Y1
	VMAXPD   Y8, Y0, Y2
	VMINPD   Y2, Y1, Y2
	VMOVUPD  Y2, (R10)
	VMOVAPD  Y10, Y8
	VMOVAPD  Y11, Y9
	ADDQ     $32, R10
	DECQ     R11
	JNZ      servegroup

	ADDQ $8, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  serveloop

servedone:
	VZEROUPPER
	RET
