package sgd

import (
	"encoding/binary"
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

// reconstructFactors is Reconstruct that also exports the trained
// factor state, through the reference trainer reconstructFull: the
// oracle ReconstructQuad's captured factors must match. Export is
// refused with ErrColdModel when the model completed zero iterations —
// an empty observation matrix never trains, so its factors are noise.
func reconstructFactors(m *Matrix, params Params) (*Prediction, *Factors, error) {
	pred, fac := reconstructFull(m, params.withDefaults(), true)
	if pred.Iters == 0 || fac == nil {
		return pred, nil, fmt.Errorf("%w (%d observed entries)", ErrColdModel, pred.Observed)
	}
	return pred, fac, nil
}

func TestColdFactorExportRefused(t *testing.T) {
	m := NewMatrix(4, 6)
	pred, fac, err := reconstructFactors(m, Params{Seed: 1})
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
	pred, fac, err := reconstructFactors(m, p)
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
	_, fac, err := reconstructFactors(donor, p)
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
	_, fac, err := reconstructFactors(donor, p)
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
	_, good, err := reconstructFactors(m, p)
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
	_, fac, err := reconstructFactors(m, Params{Factors: 2, MaxIter: 40, Seed: 2})
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

// overflowingFactors is a finite factor set of m's geometry whose first
// dot product overflows: Q = P = 1e200, so q·p = 6e400 = +Inf. It
// passes Compatible, which screens only for NaN and ±Inf entries.
func overflowingFactors(m *Matrix, p Params) *Factors {
	fill := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 1e200
		}
		return out
	}
	return &Factors{
		Rows: m.Rows, Cols: m.Cols, Rank: p.Factors, LogSpace: p.LogSpace,
		Q: fill(m.Rows * p.Factors), P: fill(m.Cols * p.Factors),
		RowBias: make([]float64, m.Rows), ColBias: make([]float64, m.Cols),
		Iters: 1, Observed: 1,
	}
}

// TestWarmStartOverflowRedoneCold imports the overflowing set on every
// lane: the serial and the lane path must both return exactly the cold
// reconstruction and its factors instead of non-finite predictions.
func TestWarmStartOverflowRedoneCold(t *testing.T) {
	ms := quadSurfaces(7)
	p := Params{Factors: 6, Reg: 0.03, MaxIter: 50, SVDInit: true, LogSpace: true}
	var ps [4]Params
	var want [4]*Prediction
	var wantFac [4]*Factors
	for l, m := range ms {
		ps[l] = p
		ps[l].Warm = overflowingFactors(m, p)
		ps[l].WarmIters = 5
		if !ps[l].Warm.Compatible(m.Rows, m.Cols, p.Factors, p.LogSpace) {
			t.Fatalf("lane %d: the overflowing set must pass Compatible to exercise the redo", l)
		}
		var err error
		if want[l], wantFac[l], err = reconstructFactors(m, p); err != nil {
			t.Fatal(err)
		}
		got, gotFac, err := reconstructFactors(m, ps[l])
		if err != nil {
			t.Fatal(err)
		}
		predBitsEqual(t, fmt.Sprintf("serial lane %d", l), got, want[l])
		if gotFac.Fingerprint() != wantFac[l].Fingerprint() {
			t.Fatalf("serial lane %d: factors are not the cold fit's", l)
		}
	}
	got, gotFac := ReconstructQuad(ms, ps, true)
	for l := range ms {
		predBitsEqual(t, fmt.Sprintf("quad lane %d", l), got[l], want[l])
		if gotFac[l].Fingerprint() != wantFac[l].Fingerprint() {
			t.Fatalf("quad lane %d: factors are not the cold fit's", l)
		}
	}
}

// FuzzWarmStart imports a factor set built from hostile bytes: each
// eight-byte word is one float64, cycled over μ, Q, P and both bias
// vectors, so the set always has the matrix's geometry and may hold any
// value at all — NaN, ±Inf, subnormals, 1e200. Neither the serial nor
// the lane path may panic, and every prediction must be finite.
func FuzzWarmStart(f *testing.F) {
	words := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(words(1e200), true)
	f.Add(words(1e200), false)
	f.Add(words(0.1, -0.2, 0.3), true)

	thr, pwr := matchedPair(3, 6, 12, 3, 4, 1)
	lat, svc := matchedPair(4, 5, 12, 3, 3, 0)
	ms := [4]*Matrix{thr, pwr, lat, svc}
	f.Fuzz(func(t *testing.T, data []byte, logSpace bool) {
		word := 0
		next := func() float64 {
			if len(data) < 8 {
				return 0
			}
			off := word % (len(data) / 8) * 8
			word++
			return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		}
		vec := func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = next()
			}
			return out
		}
		finite := func(name string, p *Prediction) {
			for i := 0; i < p.Rows; i++ {
				for j := 0; j < p.Cols; j++ {
					if v := p.At(i, j); math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("%s: (%d,%d) = %v", name, i, j, v)
					}
				}
			}
		}
		var ps [4]Params
		for l, m := range ms {
			p := Params{Factors: pairFactors, MaxIter: 20, SVDInit: true, LogSpace: logSpace, WarmIters: 5}
			p.Warm = &Factors{
				Rows: m.Rows, Cols: m.Cols, Rank: p.Factors, LogSpace: logSpace,
				Mu: next(), Q: vec(m.Rows * p.Factors), P: vec(m.Cols * p.Factors),
				RowBias: vec(m.Rows), ColBias: vec(m.Cols),
			}
			ps[l] = p
			pred, _, err := reconstructFactors(m, p)
			if err != nil {
				t.Fatal(err)
			}
			finite(fmt.Sprintf("serial lane %d", l), pred)
		}
		preds, _ := ReconstructQuad(ms, ps, true)
		for l, pred := range preds {
			finite(fmt.Sprintf("quad lane %d", l), pred)
		}
	})
}
