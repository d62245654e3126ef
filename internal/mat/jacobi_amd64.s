//go:build amd64 && !noasm

#include "textflag.h"

// rotateLanes(w, v *float64, m, n, p, q, k int) bool runs one wavefront
// step of the one-sided Jacobi sweep: pairs (p+j, q−j) for j < k ≤ 16
// of the element-major m×n w and n×n v. Lanes 0–7 are half A, lanes
// 8–15 half B; a width of eight or less runs half A alone. Lane j of a
// half kh pairs wide is one pair: its p column is element p+j of a row,
// loaded ascending, and its q column comes from the kh elements ending
// at q, loaded ascending too and reversed by VPERMPD (lane j ← kh−1−j),
// so every load and store starts inside the row.
//
// Bit for bit rotateStep: each lane sums α, β and γ over the rows in
// index order, tests and computes the rotation with the Go expression's
// operations (VSQRTPD and VDIVPD are correctly rounded, as SQRTSD and
// DIVSD; no FMA), and rotates w's and v's rows with the products and
// the subtraction or addition of c*x − s*y and s*x + c*y. A lane whose
// pair is skipped keeps its loaded values (merge masking), so the
// masked stores write them back unchanged; the p and q spans are
// disjoint, so no two stores overlap. Every load precedes the stores
// of its own row and of the row before: a load overlapping a pending
// masked store, even in masked-off lanes, cannot forward from it and
// waits for it instead.
//
// Registers: DI=w SI=v R8=m R9=n, BX=row stride in bytes, R10/R11 half
// A's p index and first q index, R12/R13 half B's, R14 the row walker,
// R15 rows left, AX the next row, DX passes left. K1/K3 halves A's and
// B's lanes, K5/K6 their rotating lanes. Z0–Z2 half A's α, β, γ (then
// Z16/Z17 its c and s), Z3–Z5 half B's (Z18/Z19), Z6–Z15 and Z20–Z22
// scratch (Z0–Z3 too, once the sums are spent), Z24 the lane indices, Z25
// and Z31 half B's and A's reversals, Z26 zero, Z27 one, Z28 the |x|
// mask, Z30 svdEps.

DATA jacobiConst<>+0(SB)/8, $0x3ff0000000000000  // 1
DATA jacobiConst<>+8(SB)/8, $0x7fffffffffffffff  // |x| mask
DATA jacobiConst<>+16(SB)/8, $0x3d719799812dea11 // svdEps = 1e-12
GLOBL jacobiConst<>(SB), RODATA|NOPTR, $24

DATA jacobiIota<>+0(SB)/8, $0
DATA jacobiIota<>+8(SB)/8, $1
DATA jacobiIota<>+16(SB)/8, $2
DATA jacobiIota<>+24(SB)/8, $3
DATA jacobiIota<>+32(SB)/8, $4
DATA jacobiIota<>+40(SB)/8, $5
DATA jacobiIota<>+48(SB)/8, $6
DATA jacobiIota<>+56(SB)/8, $7
GLOBL jacobiIota<>(SB), RODATA|NOPTR, $64

// LOADPQ loads the p lanes of the row at base into x and its q lanes,
// reversed, into y.
#define LOADPQ(base, pi, qi, kv, rev, x, y) \
	VMOVUPD.Z (base)(pi*8), kv, x      \
	VMOVUPD.Z (base)(qi*8), kv, y      \
	VPERMPD y, rev, y

// SUMROW adds one row to a half's α += x*x, β += y*y, γ += x*y.
#define SUMROW(pi, qi, kv, rev, a, b, g, x, y, t0, t1, t2) \
	LOADPQ(R14, pi, qi, kv, rev, x, y) \
	VMULPD x, x, t0                    \
	VADDPD t0, a, a                    \
	VMULPD y, y, t1                    \
	VADDPD t1, b, b                    \
	VMULPD y, x, t2                    \
	VADDPD t2, g, g

// PARAMS turns a half's sums into its rotating lanes ka (valid lanes kv
// whose pair is not orthogonal to svdEps) and their c and s, in
// rotation's order: the test |γ| <= svdEps*√(α*β) || γ == 0, then
// ζ = (β−α)/(2*γ), t = copysign(1, ζ)/(|ζ| + √(1+ζ*ζ)),
// c = 1/√(1+t*t) and s = c*t. Finite sums can still overflow to a NaN
// ζ, the negative default NaN; |ζ| is then the one positive NaN, and
// the sum |ζ| + √(1+ζ*ζ) returns its first source's NaN, so the square
// root goes first, as the Go build computes it.
#define PARAMS(a, b, g, kv, ka, c, s) \
	VMULPD b, a, Z20                   \
	VSQRTPD Z20, Z20                   \
	VMULPD Z20, Z30, Z20               \
	VPANDQ Z28, g, Z21                 \
	VCMPPD $0x12, Z20, Z21, K7         \
	VCMPPD $0x00, Z26, g, ka           \
	KORW ka, K7, K7                    \
	KANDNW kv, K7, ka                  \
	VSUBPD a, b, Z20                   \
	VADDPD g, g, Z21                   \
	VDIVPD Z21, Z20, Z20               \
	VMULPD Z20, Z20, Z21               \
	VADDPD Z21, Z27, Z21               \
	VSQRTPD Z21, Z21                   \
	VPANDQ Z28, Z20, Z22               \
	VADDPD Z22, Z21, Z21               \
	VPANDNQ Z20, Z28, Z22              \
	VPORQ Z27, Z22, Z22                \
	VDIVPD Z21, Z22, Z22               \
	VMULPD Z22, Z22, Z20               \
	VADDPD Z20, Z27, Z20               \
	VSQRTPD Z20, Z20                   \
	VDIVPD Z20, Z27, c                 \
	VMULPD Z22, c, s

// ROTATE rotates one row's loaded x and y of a half: x = c*x − s*y and
// y = s*x + c*y on its rotating lanes ka, y reversed back for its store.
#define ROTATE(ka, rev, c, s, x, y, t0, t1, t2, t3) \
	VMULPD x, c, t0                    \
	VMULPD y, s, t1                    \
	VMULPD x, s, t2                    \
	VMULPD y, c, t3                    \
	VSUBPD t1, t0, ka, x               \
	VADDPD t3, t2, ka, y               \
	VPERMPD y, rev, y

// STOREPQ stores the p lanes of the row at base from x and its q lanes
// from y.
#define STOREPQ(base, pi, qi, kv, x, y) \
	VMOVUPD x, kv, (base)(pi*8)        \
	VMOVUPD y, kv, (base)(qi*8)

#define SUMA SUMROW(R10, R11, K1, Z31, Z0, Z1, Z2, Z6, Z7, Z8, Z9, Z10)
#define SUMB SUMROW(R12, R13, K3, Z25, Z3, Z4, Z5, Z11, Z12, Z13, Z14, Z15)
#define LOADA(base, x, y) LOADPQ(base, R10, R11, K1, Z31, x, y)
#define LOADB(base, x, y) LOADPQ(base, R12, R13, K3, Z25, x, y)
#define ROTA(x, y) ROTATE(K5, Z31, Z16, Z17, x, y, Z8, Z9, Z10, Z11)
#define ROTB(x, y) ROTATE(K6, Z25, Z18, Z19, x, y, Z14, Z15, Z20, Z21)
#define STOREA(base, x, y) STOREPQ(base, R10, R11, K1, x, y)
#define STOREB(base, x, y) STOREPQ(base, R12, R13, K3, x, y)

// HALF sets up a half CX pairs wide whose highest q index is in qi: its
// lanes kv = (1<<CX)−1, its reversal rev (lane j ← CX−1−j, mod 8) and qi
// moved to its first q index, q−CX+1.
#define HALF(qi, kv, rev) \
	MOVL $1, AX                        \
	SHLL CX, AX                        \
	DECL AX                            \
	KMOVW AX, kv                       \
	LEAQ -1(CX), AX                    \
	VPBROADCASTQ AX, rev               \
	VPSUBQ Z24, rev, rev               \
	SUBQ AX, qi

TEXT ·rotateLanes(SB), NOSPLIT, $0-57
	MOVQ w+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ p+32(FP), R10
	MOVQ q+40(FP), R11
	MOVQ k+48(FP), DX
	MOVQ R9, BX
	SHLQ $3, BX
	LEAQ 8(R10), R12
	LEAQ -8(R11), R13
	VMOVUPD jacobiIota<>(SB), Z24

	MOVQ DX, CX
	CMPQ CX, $8
	JLE  widthA
	MOVQ $8, CX

widthA:
	SUBQ CX, DX // half B's width
	HALF(R11, K1, Z31)
	MOVQ DX, CX
	HALF(R13, K3, Z25)

	VPBROADCASTQ jacobiConst<>+0(SB), Z27
	VPBROADCASTQ jacobiConst<>+8(SB), Z28
	VPBROADCASTQ jacobiConst<>+16(SB), Z30
	VPXORQ       Z26, Z26, Z26
	VXORPD       X0, X0, X0
	VXORPD       X1, X1, X1
	VXORPD       X2, X2, X2

	MOVQ  DI, R14
	MOVQ  R8, R15
	TESTQ DX, DX
	JNZ   sumsAB

sumsA:
	SUMA
	ADDQ BX, R14
	DECQ R15
	JNZ  sumsA
	PARAMS(Z0, Z1, Z2, K1, K5, Z16, Z17)
	KORTESTW K5, K5
	JZ       none

	// Rotate w's m rows, then v's n rows (DX passes left), two rows in
	// flight: a row's loads go ahead of the stores of the row before,
	// whose masked-off span can reach into it. The sums (Z0–Z5) are
	// spent, so Z0–Z3 hold the second row.
	MOVQ DI, R14
	MOVQ R8, R15
	MOVQ $2, DX

passA:
	LOADA(R14, Z6, Z7)
	ROTA(Z6, Z7)
	DECQ R15
	JZ   lastA

rowsA:
	LEAQ (R14)(BX*1), AX
	LOADA(AX, Z0, Z1)
	STOREA(R14, Z6, Z7)
	MOVQ AX, R14
	ROTA(Z0, Z1)
	DECQ R15
	JZ   lastA2
	LEAQ (R14)(BX*1), AX
	LOADA(AX, Z6, Z7)
	STOREA(R14, Z0, Z1)
	MOVQ AX, R14
	ROTA(Z6, Z7)
	DECQ R15
	JNZ  rowsA

lastA:
	STOREA(R14, Z6, Z7)
	JMP  nextA

lastA2:
	STOREA(R14, Z0, Z1)

nextA:
	DECQ DX
	JZ   rotated
	MOVQ SI, R14
	MOVQ R9, R15
	JMP  passA

sumsAB:
	VXORPD X3, X3, X3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5

loopAB:
	SUMA
	SUMB
	ADDQ BX, R14
	DECQ R15
	JNZ  loopAB
	PARAMS(Z0, Z1, Z2, K1, K5, Z16, Z17)
	PARAMS(Z3, Z4, Z5, K3, K6, Z18, Z19)
	KORTESTW K5, K6
	JZ       none

	MOVQ DI, R14
	MOVQ R8, R15
	MOVQ $2, DX

passAB:
	LOADA(R14, Z6, Z7)
	LOADB(R14, Z12, Z13)
	ROTA(Z6, Z7)
	ROTB(Z12, Z13)
	DECQ R15
	JZ   lastAB

rowsAB:
	LEAQ (R14)(BX*1), AX
	LOADA(AX, Z0, Z1)
	LOADB(AX, Z2, Z3)
	STOREA(R14, Z6, Z7)
	STOREB(R14, Z12, Z13)
	MOVQ AX, R14
	ROTA(Z0, Z1)
	ROTB(Z2, Z3)
	DECQ R15
	JZ   lastAB2
	LEAQ (R14)(BX*1), AX
	LOADA(AX, Z6, Z7)
	LOADB(AX, Z12, Z13)
	STOREA(R14, Z0, Z1)
	STOREB(R14, Z2, Z3)
	MOVQ AX, R14
	ROTA(Z6, Z7)
	ROTB(Z12, Z13)
	DECQ R15
	JNZ  rowsAB

lastAB:
	STOREA(R14, Z6, Z7)
	STOREB(R14, Z12, Z13)
	JMP  nextAB

lastAB2:
	STOREA(R14, Z0, Z1)
	STOREB(R14, Z2, Z3)

nextAB:
	DECQ DX
	JZ   rotated
	MOVQ SI, R14
	MOVQ R9, R15
	JMP  passAB

rotated:
	MOVB $1, ret+56(FP)
	VZEROUPPER
	RET

none:
	MOVB $0, ret+56(FP)
	VZEROUPPER
	RET
