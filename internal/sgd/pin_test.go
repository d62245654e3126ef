package sgd

import (
	"math"
	"testing"

	"cuttlesys/internal/pin"
)

// transcendentalCanary hashes math.Exp and math.Log over the range the
// log-space surfaces span; it differs where their implementation (or
// FMA use) does; the scripts run in log space.
func transcendentalCanary() uint64 {
	h := pin.New()
	for x := -12.0; x <= 12; x += 0.37 {
		h.Floats(math.Exp(x), math.Log(math.Exp(x)+1e-3))
	}
	return h.Sum64()
}

func hashPred(h *pin.Hash, p *Prediction) {
	if p == nil {
		h.Floats(-1)
		return
	}
	h.Floats(float64(p.Rows), float64(p.Cols), float64(p.Iters), float64(p.Observed))
	h.Floats(p.vals...)
}

func hashFactors(h *pin.Hash, f *Factors) {
	if f == nil {
		h.Floats(-2)
		return
	}
	h.Floats(float64(f.Rows), float64(f.Cols), float64(f.Rank), float64(f.Iters), float64(f.Observed), f.Mu, 1)
	h.Floats(f.Q...)
	h.Floats(f.P...)
	h.Floats(f.RowBias...)
	h.Floats(f.ColBias...)
}

// reconstructionScript runs every entry point over the lane suites'
// fixtures — the runtime's four surfaces and a matched pair — plus a
// warm start, bias-frozen rows, a pair whose patterns diverge mid-row
// (so scalar tails follow the kernels) and a rank the kernels do not
// take, hashing every prediction and every captured factor set.
func reconstructionScript(t *testing.T, h *pin.Hash) {
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

	// The service row keeps two cells right of column 0, so lat/svc's
	// common prefix ends two cells past the training rows.
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

// TestReconstructionBitsPinned runs reconstructionScript on the lane
// path the host takes (the Go path under -tags noasm, or without
// AVX-512) and demands the one pinned digest. The lane suites compare the kernels against
// trainSerial; this pins trainSerial too, so a change that moves both the
// same way (the factor layout, the entry gather, the render) still fails.
func TestReconstructionBitsPinned(t *testing.T) {
	pin.Canary(t, "canary", transcendentalCanary(), "math.Exp/Log")
	lanePath(t, func(t *testing.T) {
		h := pin.New()
		reconstructionScript(t, h)
		pin.Check(t, "reconstruction", h.Sum64())
	})
}

// recipeScript runs every entry point at p over the runtime's four
// surfaces, hashing every prediction and every captured factor set.
func recipeScript(h *pin.Hash, p Params) {
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
// for bit like the runtime's recipe (rank 6, λ 0.03, 300 sweeps, the
// SVD start, log space), pinned while those were still settings.
func TestZeroParamsAreTheRuntimeRecipe(t *testing.T) {
	pin.Canary(t, "canary", transcendentalCanary(), "math.Exp/Log")
	lanePath(t, func(t *testing.T) {
		h := pin.New()
		recipeScript(h, Params{})
		pin.Check(t, "runtime-recipe", h.Sum64())
	})
}
