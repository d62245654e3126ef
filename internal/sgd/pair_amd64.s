//go:build amd64 && !noasm

#include "go_asm.h"
#include "textflag.h"

// The lane kernel: one full SGD sweep (one epoch) over a pair's slot
// schedule with rank-6 factors, two independent surfaces in the lanes
// of each 16-byte part of a 512-bit stream. Every arithmetic step
// reproduces the serial sweep's association (the dot accumulates
// left-to-right from zero; factor updates read the pre-update qk/pk on
// both right-hand sides), so each lane is bit-identical to its own
// scalar run.
//
// A row or column block is seven elements, six factors then the bias,
// lane L's float64 at +8L of its element: two-lane blocks, 16-byte
// elements, 112-byte blocks. The per-entry arithmetic is VLOAD, DOT6,
// ERRBIAS and FUPD, bound into ENTRY6 over element indices; the
// addressing macros say where a register's parts come from.
//
// wideEpoch6 sweeps a schedule of slots, each holding four different
// cells of one pair: every 16-byte part of a register is one cell's
// two lanes, loaded from (and stored back to) 16 bytes of its own row
// and column block. The cells of a slot share no row and no column,
// and the schedule keeps each row's and each column's entries in their
// serial order, so every block sees exactly the update sequence of its
// own serial sweep. The kernel keeps a slot's rows in registers while
// consecutive slots name the same rows, and its columns too, as a
// window that shifts up one part per slot while the slots follow the
// dense wavefront (each row one column behind the row above): a slot
// then stores one retiring column and loads one new one per element
// instead of round-tripping all four through memory. Registers only
// change where a value lives between two entries, not the operations
// on it. A slot names its cells' values by entry index into the pair's
// interleaved value array, each cell's two lanes one 16-byte pair.
//
// Scalar registers: DI=args R12=values base R13=slots left R9/R10=row
// and column bases R11=slot indices, SI/R8/R14/R15 the four cells' row
// blocks, BX/CX/DX/DI their column blocks (DI once the arguments are
// read), AX the value offset and the entering column's block on a
// window shift. Vector names: vQ0–vQ5 the row factors and vQB the row
// bias; vMU/vETA/vLAM the per-lane constants; vDOT, vERR and vT0–vT2
// per-entry scratch; vC0–vC5 the column factors and vCB the column
// bias, the column window. VLOAD loads the entry's values into vERR.

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
#define vT1 Z11
#define vMU Z12
#define vETA Z13
#define vLAM Z14
#define vT2 Z15

// The kernel holds a slot's seven column elements in registers of
// their own above the sixteen VEX can name — the factors in vC0–vC5,
// the bias in vCB — and keeps them there from slot to slot: the column
// window (see wideEpoch6). ENTRY6 reads and updates the window in
// place.
#define vCB Z22
#define vC0 Z16
#define vC1 Z17
#define vC2 Z18
#define vC3 Z19
#define vC4 Z20
#define vC5 Z21

// dot: s = 0; s += qk*pk, serial add order as the Go sweep. The
// VEX.128 XOR zeroes the whole ZMM register without AVX-512DQ.
#define DOT6 \
	VXORPD X7, X7, X7       \
	VMULPD vC0, vQ0, vT0    \
	VADDPD vT0, vDOT, vDOT  \
	VMULPD vC1, vQ1, vT0    \
	VADDPD vT0, vDOT, vDOT  \
	VMULPD vC2, vQ2, vT0    \
	VADDPD vT0, vDOT, vDOT  \
	VMULPD vC3, vQ3, vT0    \
	VADDPD vT0, vDOT, vDOT  \
	VMULPD vC4, vQ4, vT0    \
	VADDPD vT0, vDOT, vDOT  \
	VMULPD vC5, vQ5, vT0    \
	VADDPD vT0, vDOT, vDOT

// err = v - (((mu + rb) + cb) + dot), v already in vERR, then
// rb += eta * (err - lam*rb) and cb += eta * (err - lam*cb)
#define ERRBIAS \
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
	VADDPD vT0, vCB, vCB

// factor update k:
//   qk += eta*(err*pk - lam*qk); pk += eta*(err*qk - lam*pk)
// using old qk/pk on both right-hand sides.
#define FUPD(QK, PK) \
	VMULPD PK, vERR, vT0    \
	VMULPD QK, vLAM, vT1    \
	VSUBPD vT1, vT0, vT0    \
	VMULPD vT0, vETA, vT0   \
	VMULPD QK, vERR, vT1    \
	VMULPD PK, vLAM, vT2    \
	VSUBPD vT2, vT1, vT1    \
	VMULPD vT1, vETA, vT1   \
	VADDPD vT0, QK, QK      \
	VADDPD vT1, PK, PK

// ENTRY6 is one entry's update, its values loaded by VLOAD.
#define ENTRY6 \
	VLOAD                   \
	DOT6                    \
	ERRBIAS                 \
	FUPD(vQ0, vC0)          \
	FUPD(vQ1, vC1)          \
	FUPD(vQ2, vC2)          \
	FUPD(vQ3, vC3)          \
	FUPD(vQ4, vC4)          \
	FUPD(vQ5, vC5)

// VLOAD fills the four 16-byte parts of vERR with the values of cells
// 0–3 of the slot, at byte 16 times their entry indices off R12. The
// broadcast fills every part, and the inserts overwrite parts 1–3.
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

// RLOAD7 and RSTORE7 move a slot's seven row elements.
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
	MOVQ laneArgs_row(DI), R9
	MOVQ laneArgs_col(DI), R10
	MOVQ laneArgs_vals(DI), R12
	MOVQ laneArgs_slots(DI), R11
	MOVQ laneArgs_n(DI), R13
	VBROADCASTF32X4 laneArgs_mu(DI), vMU
	VBROADCASTF32X4 laneArgs_eta(DI), vETA
	VBROADCASTF32X4 laneArgs_lam(DI), vLAM
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
