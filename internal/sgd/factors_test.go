package sgd

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// observeDense fills a matrix from a dense table, optionally hiding a
// fraction of one row to leave something to reconstruct.
func observeDense(vals [][]float64, hideRow, keep int) *Matrix {
	m := NewMatrix(len(vals), len(vals[0]))
	for i, row := range vals {
		if i == hideRow {
			for j := 0; j < keep; j++ {
				m.Observe(i, j, row[j])
			}
			continue
		}
		m.ObserveRow(i, row)
	}
	return m
}

func TestColdFactorExportRefused(t *testing.T) {
	m := NewMatrix(4, 6)
	pred, fac, err := ReconstructFactors(m, Params{Seed: 1})
	if err == nil {
		t.Fatal("factor export on an empty matrix should error")
	}
	if !errors.Is(err, ErrColdModel) {
		t.Fatalf("error %v should wrap ErrColdModel", err)
	}
	if fac != nil {
		t.Fatal("cold export must not return factors")
	}
	if pred == nil || pred.Iters != 0 {
		t.Fatalf("cold prediction should report zero iterations, got %+v", pred)
	}
}

func TestFactorExportMatchesReconstruction(t *testing.T) {
	vals := lowRankMatrix(11, 8, 12, 3)
	m := observeDense(vals, 6, 4)
	p := Params{Factors: 3, MaxIter: 120, Seed: 7}
	want := Reconstruct(m, p)
	pred, fac, err := ReconstructFactors(m, p)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if pred.At(i, j) != want.At(i, j) {
				t.Fatalf("exporting factors changed the prediction at (%d,%d)", i, j)
			}
		}
	}
	if fac.Rows != m.Rows || fac.Cols != m.Cols || fac.Rank != 3 {
		t.Fatalf("factor geometry %dx%dx%d wrong", fac.Rows, fac.Cols, fac.Rank)
	}
	if fac.Iters != 120 || fac.Observed != pred.Observed {
		t.Fatalf("factor provenance wrong: %+v", fac)
	}
	if !fac.Compatible(m.Rows, m.Cols, 3, false) {
		t.Fatal("exported factors should be compatible with their own geometry")
	}
	if fac.Compatible(m.Rows, m.Cols, 4, false) || fac.Compatible(m.Rows+1, m.Cols, 3, false) || fac.Compatible(m.Rows, m.Cols, 3, true) {
		t.Fatal("Compatible must reject mismatched geometry or transform")
	}
}

func TestWarmStartDeterministicAcrossWorkers(t *testing.T) {
	vals := lowRankMatrix(3, 10, 14, 3)
	donor := observeDense(vals, -1, 0)
	p := Params{Factors: 3, MaxIter: 100, Seed: 5}
	_, fac, err := ReconstructFactors(donor, p)
	if err != nil {
		t.Fatalf("donor export: %v", err)
	}

	sparse := observeDense(vals, 8, 3)
	warm := p
	warm.Warm = fac
	warm.WarmIters = 10
	ref := Reconstruct(sparse, warm)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := Reconstruct(sparse, warm)
		runtime.GOMAXPROCS(prev)
		if got.Iters != 10 {
			t.Fatalf("GOMAXPROCS %d: WarmIters should cap sweeps at 10, got %d", procs, got.Iters)
		}
		predBitsEqual(t, fmt.Sprintf("GOMAXPROCS %d", procs), got, ref)
	}
}

func TestWarmStartBeatsColdOnSparseRow(t *testing.T) {
	vals := lowRankMatrix(17, 9, 12, 3)
	donor := observeDense(vals, -1, 0)
	p := Params{Factors: 3, MaxIter: 150, Seed: 9}
	_, fac, err := ReconstructFactors(donor, p)
	if err != nil {
		t.Fatalf("donor export: %v", err)
	}

	// A new machine has seen only two cells of row 7; FactorMinObs
	// freezes that row's factors. Cold they are zeroed (bias model);
	// warm they carry the fleet's factors, so the hidden cells should
	// land far closer to truth.
	const hidden = 7
	sparse := observeDense(vals, hidden, 2)
	cold := p
	cold.FactorMinObs = 4
	warm := cold
	warm.Warm = fac
	warm.WarmIters = 20
	coldPred := Reconstruct(sparse, cold)
	warmPred := Reconstruct(sparse, warm)
	coldErr, warmErr := 0.0, 0.0
	for j := 2; j < sparse.Cols; j++ {
		truth := vals[hidden][j]
		coldErr += abs(coldPred.At(hidden, j)-truth) / truth
		warmErr += abs(warmPred.At(hidden, j)-truth) / truth
	}
	if warmErr >= coldErr {
		t.Fatalf("warm start should beat cold on a frozen sparse row: warm %.4f vs cold %.4f", warmErr, coldErr)
	}
}

func TestWarmStartIgnoresIncompatibleFactors(t *testing.T) {
	vals := lowRankMatrix(21, 6, 8, 2)
	m := observeDense(vals, 4, 2)
	p := Params{Factors: 2, MaxIter: 50, Seed: 3}
	cold := Reconstruct(m, p)
	_, good, err := ReconstructFactors(m, p)
	if err != nil {
		t.Fatal(err)
	}
	// Trained factors with one value overwritten: a single non-finite
	// column factor would reach every prediction within a sweep.
	nan, inf := good.Clone(), good.Clone()
	nan.P[3] = math.NaN()
	inf.RowBias[1] = math.Inf(1)
	for name, warm := range map[string]*Factors{
		"wrong geometry": {Rows: 99, Cols: 8, Rank: 2},
		"NaN factor":     nan,
		"+Inf bias":      inf,
	} {
		bad := p
		bad.Warm = warm
		bad.WarmIters = 5
		got := Reconstruct(m, bad)
		if got.Iters != 50 {
			t.Fatalf("%s: incompatible warm factors must not cap sweeps: got %d", name, got.Iters)
		}
		predBitsEqual(t, name+": cold-init fallback", got, cold)
	}
}

func TestFactorsCloneAndFingerprint(t *testing.T) {
	vals := lowRankMatrix(29, 7, 9, 2)
	m := observeDense(vals, -1, 0)
	_, fac, err := ReconstructFactors(m, Params{Factors: 2, MaxIter: 40, Seed: 2})
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	cl := fac.Clone()
	if cl.Fingerprint() != fac.Fingerprint() {
		t.Fatal("clone should fingerprint identically")
	}
	cl.Q[0] += 1e-12
	if cl.Fingerprint() == fac.Fingerprint() {
		t.Fatal("fingerprint must be sensitive to single-bit factor changes")
	}
	cl.Q[0] = fac.Q[0]
	if cl.Fingerprint() != fac.Fingerprint() {
		t.Fatal("restoring the value should restore the fingerprint")
	}
	if fac.Clone() == fac || &fac.Clone().Q[0] == &fac.Q[0] {
		t.Fatal("clone must not share storage")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
