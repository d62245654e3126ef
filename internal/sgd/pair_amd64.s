//go:build amd64 && !noasm

#include "textflag.h"

// The lane kernels: one full SGD sweep (one epoch) over a run of
// entries with rank-6 factors, independent surfaces in the lanes of one
// 256- or 512-bit stream. Every arithmetic step reproduces the serial
// sweep's association (the dot accumulates left-to-right from zero;
// factor updates read the pre-update qk/pk on both right-hand sides),
// so each lane is bit-identical to its own scalar run.
//
// A row or column block is seven elements, six factors then the bias,
// lane L's float64 at +8L of its element. quadEpoch6 and dualEpoch6 use
// four-lane blocks (32-byte elements, 224-byte blocks), wideEpoch6
// two-lane blocks (16-byte elements, 112-byte blocks). All three share
// the per-entry arithmetic (VLOAD, DOT6, ERRBIAS, FUPD, bound into
// ENTRY6 over element indices); they differ in where a register's parts
// come from.
//
// quadEpoch6 sweeps a CSR-laid run in trainSerial's order — rows
// outer, each row's entries in column order — with all four lanes of
// one cell per register and the row's factors resident across its
// entries. dualEpoch6 and wideEpoch6 sweep a schedule of slots, each
// holding two (dual) or four (wide) different cells of one pair: every
// 16-byte part of a register is one cell's two lanes, loaded from (and
// stored back to) 16 bytes of its own row and column block — for dual
// lanes 0–1 or 2–3 of the four-lane blocks as the caller aims the row
// and col bases. The cells of a slot share no row and no column, and
// the schedule keeps each row's and each column's entries in their
// serial order, so every block sees exactly the update sequence of its
// own serial sweep. Both keep a slot's rows in registers while
// consecutive slots name the same rows. wideEpoch6 keeps its columns
// in registers too, as a window that shifts up one part per slot while
// the slots follow the dense wavefront (each row one column behind the
// row above): a slot then stores one retiring column and loads one new
// one per element instead of round-tripping all four through memory.
// Registers only change where a value lives between two entries, not
// the operations on it. A slot names its cells' values by entry index
// into the pair's interleaved value array, each cell's two lanes one
// 16-byte pair.
//
// Scalar registers: DI=args R12=vals (quad: lanes 0–1's, walking; dual
// and wide: the base) R13=rows or slots left; quad: SI=row block
// R9=column blocks R11=offs R15=offs walker R10=rowPtr DX=row's end in
// offs BX=entry's column block R14=lanes 2–3's values, walking; dual: R9/R10=row and column bases
// R11=slot indices SI/R8=row blocks of entries A/B BX/CX=their column
// blocks AX=value offset; wide: R9/R10/R11/AX as dual, SI/R8/R14/R15
// the four cells' row blocks, BX/CX/DX/DI their column blocks (DI once
// the arguments are read), AX also the entering column's block on a
// window shift. Vector names: vQ0–vQ5 the row factors and
// vQB the row bias; vMU/vETA/vLAM the per-lane constants; vDOT, vERR,
// vPK and vT0–vT2 per-entry scratch; vC0–vC5 the column factors and
// vCB the column bias (all vPK but in the wide kernel, whose column
// window is Z16–Z22). VLOAD loads the entry's values into vERR; CMUL,
// CLOAD, CFETCH and CSTORE reach the column elements. Each kernel binds
// them to its own addressing.

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

// dot: s = 0; s += qk*pk, serial add order as the Go sweep. The
// VEX.128 XOR zeroes the whole register, YMM or ZMM, without
// AVX-512DQ.
#define DOT6 \
	VXORPD X7, X7, X7       \
	CMUL(0, vQ0, vC0)       \
	VADDPD vT0, vDOT, vDOT  \
	CMUL(1, vQ1, vC1)       \
	VADDPD vT0, vDOT, vDOT  \
	CMUL(2, vQ2, vC2)       \
	VADDPD vT0, vDOT, vDOT  \
	CMUL(3, vQ3, vC3)       \
	VADDPD vT0, vDOT, vDOT  \
	CMUL(4, vQ4, vC4)       \
	VADDPD vT0, vDOT, vDOT  \
	CMUL(5, vQ5, vC5)       \
	VADDPD vT0, vDOT, vDOT

// err = v - (((mu + rb) + cb) + dot), v already in vERR, then
// rb += eta * (err - lam*rb) and cb += eta * (err - lam*cb), the
// column bias held in vCB
#define ERRBIAS \
	CLOAD(6, vCB)           \
	VADDPD vQB, vMU, vT0    \
	VADDPD vCB, vT0, vT0    \
	VADDPD vDOT, vT0, vT0   \
	VSUBPD vT0, vERR, vERR  \
	VMULPD vQB, vLAM, vT0   \
	VSUBPD vT0, vERR, vT0   \
	VMULPD vT0, vETA, vT0   \
	VADDPD vT0, vQB, vQB    \
	VMULPD vCB, vLAM, vT0   \
	VSUBPD vT0, vERR, vT0   \
	VMULPD vT0, vETA, vT0   \
	VADDPD vT0, vCB, vCB    \
	CSTORE(6, vCB)

// factor update k, column element E held in PK:
//   qk += eta*(err*pk - lam*qk); pk += eta*(err*qk - lam*pk)
// using old qk/pk on both right-hand sides.
#define FUPD(QK, E, PK) \
	CFETCH(E, PK)           \
	VMULPD PK, vERR, vT0    \
	VMULPD QK, vLAM, vT1    \
	VSUBPD vT1, vT0, vT0    \
	VMULPD vT0, vETA, vT0   \
	VMULPD QK, vERR, vT1    \
	VMULPD PK, vLAM, vT2    \
	VSUBPD vT2, vT1, vT1    \
	VMULPD vT1, vETA, vT1   \
	VADDPD vT0, QK, QK      \
	VADDPD vT1, PK, PK      \
	CSTORE(E, PK)

// ENTRY6 is one entry's update, its values loaded by VLOAD and its
// column block(s) addressed by the C* macros (element E: factor E, the
// bias at 6).
#define ENTRY6 \
	VLOAD                   \
	DOT6                    \
	ERRBIAS                 \
	FUPD(vQ0, 0, vC0)       \
	FUPD(vQ1, 1, vC1)       \
	FUPD(vQ2, 2, vC2)       \
	FUPD(vQ3, 3, vC3)       \
	FUPD(vQ4, 4, vC4)       \
	FUPD(vQ5, 5, vC5)

// The 256-bit kernels fetch each column factor into vPK when they
// update it, and the column bias too.
#define vCB vPK
#define vC0 vPK
#define vC1 vPK
#define vC2 vPK
#define vC3 vPK
#define vC4 vPK
#define vC5 vPK
#define CFETCH(E, PK) CLOAD(E, PK)

// Quad addressing: the whole 32-byte element at BX; the values of
// lanes 0–1 at 0(R12) and of lanes 2–3 at 0(R14), the two pairs'
// interleaved arrays walked in step.
#define VLOAD \
	VMOVUPD 0(R12), X9         \
	VINSERTF128 $1, 0(R14), vERR, vERR
#define CMUL(E, QK, PK) VMULPD (E*32)(BX), QK, vT0
#define CLOAD(E, PK) VMOVUPD (E*32)(BX), PK
#define CSTORE(E, PK) VMOVUPD PK, (E*32)(BX)

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
	MOVQ 152(DI), R14
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
	ADDQ $16, R12
	ADDQ $16, R14
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

#undef VLOAD
#undef CMUL
#undef CLOAD
#undef CSTORE

// Dual addressing: entry A's 16 bytes at BX fill the low half, entry
// B's at CX the high half, and their values come from byte 16 times
// their entry indices off R12. A VEX.128 load zeroes the upper half it
// leaves, so VINSERTF128 never merges with stale bits. PK is vPK.
#define VLOAD \
	MOVWQZX 8(R11), AX         \
	SHLQ $4, AX                \
	VMOVUPD (R12)(AX*1), X9    \
	MOVWQZX 10(R11), AX        \
	SHLQ $4, AX                \
	VINSERTF128 $1, (R12)(AX*1), vERR, vERR
#define CMUL(E, QK, PK) \
	VMOVUPD (E*32)(BX), X8     \
	VINSERTF128 $1, (E*32)(CX), vT0, vT0 \
	VMULPD vT0, QK, vT0
#define CLOAD(E, PK) \
	VMOVUPD (E*32)(BX), X10    \
	VINSERTF128 $1, (E*32)(CX), vPK, vPK
#define CSTORE(E, PK) \
	VMOVUPD X10, (E*32)(BX)    \
	VEXTRACTF128 $1, vPK, (E*32)(CX)

// RLOAD and RSTORE move row element E of entries A (SI) and B (R8)
// between memory and the halves of Y, whose low half is X.
#define RLOAD(X, Y, E) \
	VMOVUPD (E*32)(SI), X      \
	VINSERTF128 $1, (E*32)(R8), Y, Y
#define RSTORE(X, Y, E) \
	VMOVUPD X, (E*32)(SI)      \
	VEXTRACTF128 $1, Y, (E*32)(R8)

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

// RLOAD7 and RSTORE7 move a slot's seven row elements, whichever
// kernel's RLOAD and RSTORE are bound.
#define RLOAD7 \
	RLOAD(X0, vQ0, 0)       \
	RLOAD(X1, vQ1, 1)       \
	RLOAD(X2, vQ2, 2)       \
	RLOAD(X3, vQ3, 3)       \
	RLOAD(X4, vQ4, 4)       \
	RLOAD(X5, vQ5, 5)       \
	RLOAD(X6, vQB, 6)

#define RSTORE7 \
	RSTORE(X0, vQ0, 0)      \
	RSTORE(X1, vQ1, 1)      \
	RSTORE(X2, vQ2, 2)      \
	RSTORE(X3, vQ3, 3)      \
	RSTORE(X4, vQ4, 4)      \
	RSTORE(X5, vQ5, 5)      \
	RSTORE(X6, vQB, 6)

// func dualEpoch6(a *laneArgs)
//
// Two cells of one pair per register, a slot at a time. Per slot the
// indices are six uint16s — rows of A and B, columns of A and B, then
// their entries — the first four scaled to 224-byte blocks.
// The two rows stay in registers while consecutive slots name the same
// pair of rows, and are stored back when the pair changes and at the
// end.
TEXT ·dualEpoch6(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ 0(DI), R9
	MOVQ 8(DI), R10
	MOVQ 16(DI), R12
	MOVQ 144(DI), R11
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
	ADDQ $12, R11
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

#undef VLOAD
#undef CMUL
#undef CLOAD
#undef CSTORE
#undef CFETCH
#undef RLOAD
#undef RSTORE
#undef ROWS
#undef vCB
#undef vC0
#undef vC1
#undef vC2
#undef vC3
#undef vC4
#undef vC5

// The wide kernel's register set: the same sixteen registers at 512
// bits, so ENTRY6 expands to the EVEX forms (AVX-512F only).
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
#define vQ0 Z0
#define vQ1 Z1
#define vQ2 Z2
#define vQ3 Z3
#define vQ4 Z4
#define vQ5 Z5
#define vQB Z6
#define vDOT Z7
#define vT0 Z8
#define vERR Z9
#define vPK Z10
#define vT1 Z11
#define vMU Z12
#define vETA Z13
#define vLAM Z14
#define vT2 Z15

// The wide kernel holds a slot's seven column elements in registers of
// their own above the sixteen VEX can name — the factors in vC0–vC5,
// the bias in vCB — and keeps them there from slot to slot: the column
// window (see wideEpoch6).
#define vCB Z22
#define vC0 Z16
#define vC1 Z17
#define vC2 Z18
#define vC3 Z19
#define vC4 Z20
#define vC5 Z21

// Wide addressing: the four 16-byte parts of a register are cells 0–3
// of the slot, their values at byte 16 times their entry indices off
// R12. The broadcast fills every part, and the inserts overwrite parts
// 1–3. ENTRY6 reads and updates the window in place.
#define VPART(OFF, N) \
	MOVWQZX OFF(R11), AX       \
	SHLQ $4, AX                \
	VINSERTF32X4 $N, (R12)(AX*1), vERR, vERR
#define VLOAD \
	MOVWQZX 16(R11), AX        \
	SHLQ $4, AX                \
	VBROADCASTF32X4 (R12)(AX*1), vERR \
	VPART(18, 1)               \
	VPART(20, 2)               \
	VPART(22, 3)
#define CMUL(E, QK, PK) VMULPD PK, QK, vT0
#define CLOAD(E, PK)
#define CFETCH(E, PK)
#define CSTORE(E, PK)

// CGATHER fills window element E from element E of the four column
// blocks at BX, CX, DX and DI, one per part, and CSPILL stores it back
// there. CSHIFT moves it up one part: part 3's column, at DI, retires to
// its block, parts 0–2 become parts 1–3 and part 0 takes element E of
// the block at AX. The retiring store comes before the load, so a
// column that left the window is read back as it left. Only AVX-512F
// forms touch Z16–Z22: broadcasts, part inserts and extracts and
// VALIGNQ, not VEX or 128-bit EVEX moves.
#define CGATHER(E, Z) \
	VBROADCASTF32X4 (E*16)(BX), Z \
	VINSERTF32X4 $1, (E*16)(CX), Z, Z \
	VINSERTF32X4 $2, (E*16)(DX), Z, Z \
	VINSERTF32X4 $3, (E*16)(DI), Z, Z
#define CSPILL(E, Z) \
	VEXTRACTF32X4 $0, Z, (E*16)(BX) \
	VEXTRACTF32X4 $1, Z, (E*16)(CX) \
	VEXTRACTF32X4 $2, Z, (E*16)(DX) \
	VEXTRACTF32X4 $3, Z, (E*16)(DI)
#define CSHIFT(E, Z) \
	VEXTRACTF32X4 $3, Z, (E*16)(DI) \
	VBROADCASTF32X4 (E*16)(AX), vT0 \
	VALIGNQ $6, vT0, Z, Z

#define CGATHER7 \
	CGATHER(0, vC0)         \
	CGATHER(1, vC1)         \
	CGATHER(2, vC2)         \
	CGATHER(3, vC3)         \
	CGATHER(4, vC4)         \
	CGATHER(5, vC5)         \
	CGATHER(6, vCB)

#define CSPILL7 \
	CSPILL(0, vC0)          \
	CSPILL(1, vC1)          \
	CSPILL(2, vC2)          \
	CSPILL(3, vC3)          \
	CSPILL(4, vC4)          \
	CSPILL(5, vC5)          \
	CSPILL(6, vCB)

#define CSHIFT7 \
	CSHIFT(0, vC0)          \
	CSHIFT(1, vC1)          \
	CSHIFT(2, vC2)          \
	CSHIFT(3, vC3)          \
	CSHIFT(4, vC4)          \
	CSHIFT(5, vC5)          \
	CSHIFT(6, vCB)

// RLOAD and RSTORE move row element E of the four cells (SI, R8, R14,
// R15) between memory and the parts of Z, whose low part is X.
#define RLOAD(X, Z, E) \
	VMOVUPD (E*16)(SI), X      \
	VINSERTF32X4 $1, (E*16)(R8), Z, Z \
	VINSERTF32X4 $2, (E*16)(R14), Z, Z \
	VINSERTF32X4 $3, (E*16)(R15), Z, Z
#define RSTORE(X, Z, E) \
	VMOVUPD X, (E*16)(SI)      \
	VEXTRACTF32X4 $1, Z, (E*16)(R8) \
	VEXTRACTF32X4 $2, Z, (E*16)(R14) \
	VEXTRACTF32X4 $3, Z, (E*16)(R15)

// BLOCK points R at the 112-byte block of the uint16 index at OFF(R11)
// from base BASE.
#define BLOCK(OFF, BASE, R) \
	MOVWQZX OFF(R11), R     \
	IMUL3Q $112, R, R       \
	ADDQ BASE, R

// ROWS4 and COLS4 point the four cells' row and column block registers
// at the current slot's blocks.
#define ROWS4 \
	BLOCK(0, R9, SI)        \
	BLOCK(2, R9, R8)        \
	BLOCK(4, R9, R14)       \
	BLOCK(6, R9, R15)
#define COLS4 \
	BLOCK(8, R10, BX)       \
	BLOCK(10, R10, CX)      \
	BLOCK(12, R10, DX)      \
	BLOCK(14, R10, DI)

// func wideEpoch6(a *laneArgs)
//
// Four cells of one pair per register, a slot at a time. Per slot the
// indices are twelve uint16s — the four cells' rows, their columns,
// then their entries — the first eight scaled to 112-byte blocks. The
// per-lane constants are the pair's two, broadcast to every part. Rows
// and columns stay in registers independently. The four rows stay while
// consecutive slots name the same rows, and are stored back when they
// change and at the end. The columns are a window: where a slot's
// columns 1–3 are the previous slot's columns 0–2 — the dense
// wavefront, each row one column behind the row above — the window
// shifts (CSHIFT), one column retiring and one entering per element;
// anywhere else it is stored back whole and gathered afresh, and it is
// stored back at the end.
TEXT ·wideEpoch6(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ 0(DI), R9
	MOVQ 8(DI), R10
	MOVQ 16(DI), R12
	MOVQ 144(DI), R11
	MOVQ 40(DI), R13
	VBROADCASTF32X4 48(DI), vMU
	VBROADCASTF32X4 80(DI), vETA
	VBROADCASTF32X4 112(DI), vLAM
	TESTQ R13, R13
	JZ widedone
	ROWS4
	RLOAD7
	COLS4
	CGATHER7

wideloop:
	ENTRY6
	ADDQ $24, R11
	DECQ R13
	JZ wideend
	MOVQ 0(R11), AX
	CMPQ AX, -24(R11)
	JNE widerows

widecols:
	// Shift test: the slot's columns 1–3 against the previous slot's
	// columns 0–2, the two packed index words compared 16 bits apart.
	MOVQ -16(R11), AX
	SHLQ $16, AX
	XORQ 8(R11), AX
	SHRQ $16, AX
	JNZ widegather
	BLOCK(8, R10, AX)
	CSHIFT7
	MOVQ DX, DI
	MOVQ CX, DX
	MOVQ BX, CX
	MOVQ AX, BX
	JMP wideloop

widerows:
	RSTORE7
	ROWS4
	RLOAD7
	JMP widecols

widegather:
	CSPILL7
	COLS4
	CGATHER7
	JMP wideloop

wideend:
	RSTORE7
	CSPILL7

widedone:
	VZEROUPPER
	RET
