package sgd

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"
)

// The bits every entry point produces on a fixed script of
// reconstructions, recorded on the serial path, the AVX path and the
// AVX-512 path alike. The lane suites compare the kernels against
// trainSerial; this pins trainSerial too, so a change that moves both
// the same way (the factor layout, the entry gather, the render) still
// fails.
const (
	reconstructionBits = 0x7454c6d814e1d64b
	// pinCanary is transcendentalCanary on the recording host: the
	// script runs in log space, so math.Exp and math.Log must match it
	// for the bits above to be reachable.
	pinCanary = 0x2cdc5433edbafe74
)

// transcendentalCanary hashes math.Exp and math.Log over the range the
// log-space surfaces span; it differs where their implementation (or
// FMA use) does.
func transcendentalCanary() uint64 {
	h := fnv.New64a()
	for x := -12.0; x <= 12; x += 0.37 {
		hashFloats(h, math.Exp(x), math.Log(math.Exp(x)+1e-3))
	}
	return h.Sum64()
}

func hashFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func hashPred(h hash.Hash64, p *Prediction) {
	if p == nil {
		hashFloats(h, -1)
		return
	}
	hashFloats(h, float64(p.Rows), float64(p.Cols), float64(p.Iters), float64(p.Observed))
	hashFloats(h, p.vals...)
}

func hashFactors(h hash.Hash64, f *Factors) {
	if f == nil {
		hashFloats(h, -2)
		return
	}
	hashFloats(h, float64(f.Rows), float64(f.Cols), float64(f.Rank), float64(f.Iters), float64(f.Observed), f.Mu, 1)
	hashFloats(h, f.Q...)
	hashFloats(h, f.P...)
	hashFloats(h, f.RowBias...)
	hashFloats(h, f.ColBias...)
}

// reconstructionScript runs every entry point over the lane suites'
// fixtures — the runtime's four surfaces and a matched pair — plus a
// warm start, bias-frozen rows, a pair whose patterns diverge mid-row
// (so scalar tails follow the kernels) and a rank the kernels do not
// take, hashing every prediction and every captured factor set.
func reconstructionScript(t *testing.T, h hash.Hash64) {
	rt := Params{Factors: 6, Reg: 0.03, MaxIter: 30}
	frozen := rt
	frozen.FactorMinObs = 4
	all := func(p Params) [4]Params { return [4]Params{p, p, p, p} }
	serial := func(m *Matrix, p Params) {
		hashPred(h, Reconstruct(m, p))
		pred, fac, err := reconstructFactors(m, p)
		if err != nil {
			t.Fatal(err)
		}
		hashPred(h, pred)
		hashFactors(h, fac)
	}
	quad := func(ms [4]*Matrix, ps [4]Params) {
		for _, capture := range []bool{false, true} {
			preds, facs := ReconstructQuad(ms, ps, capture)
			for l := range ms {
				hashPred(h, preds[l])
				hashFactors(h, facs[l])
			}
		}
	}
	pair := func(a, b *Matrix, pa, pb Params) {
		pA, pB := ReconstructPair(a, b, pa, pb)
		hashPred(h, pA)
		hashPred(h, pB)
		pA, pB, fA, fB := ReconstructPairFactors(a, b, pa, pb)
		hashPred(h, pA)
		hashPred(h, pB)
		hashFactors(h, fA)
		hashFactors(h, fB)
	}

	// The runtime's four surfaces: cold, then lat/svc warm-started
	// from their own factors beside a cold thr/pwr pair, then all four
	// warm.
	ms := quadSurfaces(1)
	quad(ms, all(rt))
	for l, m := range ms {
		serial(m, rt)
		if l == 2 {
			serial(m, frozen)
		}
	}
	_, facs := ReconstructQuad(ms, all(rt), true)
	warm := all(rt)
	for l := 2; l < 4; l++ {
		warm[l].Warm, warm[l].WarmIters = facs[l], 12
	}
	quad(ms, warm)
	for l := range warm {
		warm[l].Warm, warm[l].WarmIters = facs[l], 12
	}
	quad(ms, warm)
	serial(ms[0], warm[0])

	// The service row keeps two cells right of column 0, so the AVX
	// path has no four-lane prefix past the training rows' end.
	ms = quadSurfaces(2)
	setCell(false, 12, 0, ms[2], ms[3])
	keepCells(12, 2, ms[2], ms[3])
	quad(ms, all(frozen))

	// A matched pair, whole; with bias-frozen rows; and diverging
	// mid-row, so both lanes finish in scalar tails.
	a, b := matchedPair(3, 24, 108, 12, 9, 3)
	pair(a, b, rt, rt)
	pair(a, b, frozen, frozen)
	a.clear(15, rowObs(a, 15)[2])
	pair(a, b, rt, rt)
	serial(a, rt)
	serial(b, frozen)

	// Warm pair; rank 8, which no kernel takes.
	_, _, fA, fB := ReconstructPairFactors(a, b, rt, rt)
	wa, wb := frozen, frozen
	wa.Warm, wa.WarmIters = fA, 10
	wb.Warm, wb.WarmIters = fB, 10
	pair(a, b, wa, wb)
	rank8 := Params{Factors: 8, Reg: 0.05, MaxIter: 20}
	pair(pairMatrix(6, 16, 108, 8, 3), pairMatrix(7, 16, 108, 8, 3), rank8, rank8)
}

// TestReconstructionBitsPinned runs reconstructionScript on every lane
// path the host can take (the Go path alone under -tags noasm) and
// demands the recorded digest.
func TestReconstructionBitsPinned(t *testing.T) {
	if got := transcendentalCanary(); got != pinCanary {
		t.Skipf("math.Exp/Log differ from the recording host (canary %#x, recorded %#x)", got, uint64(pinCanary))
	}
	lanePaths(t, func(t *testing.T) {
		h := fnv.New64a()
		reconstructionScript(t, h)
		if got := h.Sum64(); got != reconstructionBits {
			t.Fatalf("reconstruction digest %#x, want %#x", got, uint64(reconstructionBits))
		}
	})
}

// runtimeRecipeBits is recipeScript's digest under the runtime's
// recipe spelled out — rank 6, λ 0.03, 300 sweeps, the SVD start, log
// space — recorded while those were still settings and not the zero
// Params.
const runtimeRecipeBits = 0x23f63bbb329de449

// recipeScript runs every entry point at p over the runtime's four
// surfaces, hashing every prediction and every captured factor set.
func recipeScript(h hash.Hash64, p Params) {
	ms := quadSurfaces(3)
	preds, facs := ReconstructQuad(ms, [4]Params{p, p, p, p}, true)
	for l, m := range ms {
		hashPred(h, preds[l])
		hashFactors(h, facs[l])
		hashPred(h, Reconstruct(m, p))
	}
	a, b, fa, fb := ReconstructPairFactors(ms[0], ms[1], p, p)
	hashPred(h, a)
	hashPred(h, b)
	hashFactors(h, fa)
	hashFactors(h, fb)
}

// TestZeroParamsAreTheRuntimeRecipe: a zero Params reconstructs bit
// for bit like the runtime's recipe, on every lane path.
func TestZeroParamsAreTheRuntimeRecipe(t *testing.T) {
	if got := transcendentalCanary(); got != pinCanary {
		t.Skipf("math.Exp/Log differ from the recording host (canary %#x, recorded %#x)", got, uint64(pinCanary))
	}
	lanePaths(t, func(t *testing.T) {
		h := fnv.New64a()
		recipeScript(h, Params{})
		if got := h.Sum64(); got != runtimeRecipeBits {
			t.Fatalf("zero-Params digest %#x, want the runtime recipe's %#x", got, uint64(runtimeRecipeBits))
		}
	})
}
