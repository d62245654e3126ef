package sgd

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/mat"
	"cuttlesys/internal/perf"
	"cuttlesys/internal/power"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/stats"
	"cuttlesys/internal/workload"
)

// clear removes the observation at (i, j).
func (m *Matrix) clear(i, j int) { m.known[i*m.Cols+j] = false }

func TestObserveAndClear(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.knownCount() != 0 {
		t.Fatal("fresh matrix should have no observations")
	}
	m.Observe(1, 2, 7.5)
	if !m.Known(1, 2) || m.At(1, 2) != 7.5 {
		t.Fatal("Observe/At roundtrip failed")
	}
	m.Observe(1, 2, 8.0)
	if m.At(1, 2) != 8.0 {
		t.Fatal("re-observation should overwrite")
	}
	m.clear(1, 2)
	if m.Known(1, 2) {
		t.Fatal("Clear failed")
	}
}

func TestObserveRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.ObserveRow(0, []float64{1, 2, 3})
	if m.knownCount() != 3 || m.At(0, 2) != 3 {
		t.Fatal("ObserveRow failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	m.ObserveRow(1, []float64{1})
}

// Build a synthetic exactly-low-rank matrix, hide most of one row, and
// check the reconstruction recovers it — the core premise of §V.
func lowRankMatrix(seed uint64, rows, cols, rank int) [][]float64 {
	r := rng.New(seed)
	u := make([][]float64, rows)
	v := make([][]float64, cols)
	for i := range u {
		u[i] = make([]float64, rank)
		for k := range u[i] {
			u[i][k] = 1 + r.Float64()
		}
	}
	for j := range v {
		v[j] = make([]float64, rank)
		for k := range v[j] {
			v[j][k] = 1 + r.Float64()
		}
	}
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
		for j := range out[i] {
			s := 0.0
			for k := 0; k < rank; k++ {
				s += u[i][k] * v[j][k]
			}
			out[i][j] = s
		}
	}
	return out
}

func TestReconstructRecoversLowRank(t *testing.T) {
	truth := lowRankMatrix(1, 18, 40, 3)
	m := NewMatrix(18, 40)
	// 16 fully-known rows; 2 rows with only 2 observations each.
	for i := 0; i < 16; i++ {
		m.ObserveRow(i, truth[i])
	}
	for _, i := range []int{16, 17} {
		m.Observe(i, 0, truth[i][0])
		m.Observe(i, 39, truth[i][39])
	}
	pred := Reconstruct(m, Params{MaxIter: 600})
	var errs []float64
	for _, i := range []int{16, 17} {
		for j := 1; j < 39; j++ {
			errs = append(errs, math.Abs(stats.RelErrPct(pred.At(i, j), truth[i][j])))
		}
	}
	if mape := stats.Mean(errs); mape > 12 {
		t.Fatalf("low-rank reconstruction MAPE %v%%, want < 12%%", mape)
	}
}

func TestReconstructKeepsObservedEntries(t *testing.T) {
	truth := lowRankMatrix(2, 10, 20, 2)
	m := NewMatrix(10, 20)
	for i := 0; i < 9; i++ {
		m.ObserveRow(i, truth[i])
	}
	m.Observe(9, 3, truth[9][3])
	pred := Reconstruct(m, Params{})
	if got := pred.At(9, 3); got != truth[9][3] {
		t.Fatalf("observed entry changed: %v != %v", got, truth[9][3])
	}
}

func TestSVDInitConverges(t *testing.T) {
	truth := lowRankMatrix(5, 18, 30, 2)
	m := NewMatrix(18, 30)
	for i := 0; i < 16; i++ {
		m.ObserveRow(i, truth[i])
	}
	m.Observe(16, 0, truth[16][0])
	m.Observe(16, 29, truth[16][29])
	pred := Reconstruct(m, Params{MaxIter: 300})
	var errs []float64
	for j := 1; j < 29; j++ {
		errs = append(errs, math.Abs(stats.RelErrPct(pred.At(16, j), truth[16][j])))
	}
	if mape := stats.Mean(errs); mape > 12 {
		t.Fatalf("SVD-init reconstruction MAPE %v%%, want < 12%%", mape)
	}
}

func TestLogSpacePositivity(t *testing.T) {
	// Tail latencies span decades; log-space training must return
	// strictly positive predictions.
	r := rng.New(9)
	m := NewMatrix(10, 20)
	for i := 0; i < 9; i++ {
		row := make([]float64, 20)
		for j := range row {
			row[j] = math.Exp(float64(j)/3 + r.Float64())
		}
		m.ObserveRow(i, row)
	}
	m.Observe(9, 0, 1.5)
	m.Observe(9, 19, 400)
	pred := Reconstruct(m, Params{})
	for j := 0; j < 20; j++ {
		if pred.At(9, j) <= 0 {
			t.Fatalf("log-space prediction non-positive at col %d", j)
		}
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := NewMatrix(3, 3)
	pred := Reconstruct(m, Params{})
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if pred.At(i, j) != 0 {
				t.Fatal("empty matrix should reconstruct to zeros")
			}
		}
	}
}

// panicMessage runs f and returns what it panicked with, "" if it
// returned normally.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestInvalidParamsPanic hands every entry point each parameter set no
// reconstruction can use — a regularisation factor that is NaN,
// infinite or negative, a negative sweep count, a negative rank or
// FactorMinObs — and demands an "sgd: " panic naming the field; the
// zero and an explicit valid set must run. For the lane entry points
// the bad set rides in one lane beside valid ones.
func TestInvalidParamsPanic(t *testing.T) {
	ok := Params{Factors: 6, Reg: 0.03, MaxIter: 5}
	with := func(edit func(p *Params)) Params {
		p := ok
		edit(&p)
		return p
	}
	cases := []struct {
		name  string
		p     Params
		field string // "" for a valid set
	}{
		{"zero (defaults)", Params{}, ""},
		{"valid", ok, ""},
		{"Reg NaN", with(func(p *Params) { p.Reg = math.NaN() }), "Reg"},
		{"Reg -5", with(func(p *Params) { p.Reg = -5 }), "Reg"},
		{"Reg +Inf", with(func(p *Params) { p.Reg = math.Inf(1) }), "Reg"},
		{"Reg -Inf", with(func(p *Params) { p.Reg = math.Inf(-1) }), "Reg"},
		{"MaxIter -3", with(func(p *Params) { p.MaxIter = -3 }), "MaxIter"},
		{"WarmIters -1", with(func(p *Params) { p.WarmIters = -1 }), "WarmIters"},
		{"Factors -6", with(func(p *Params) { p.Factors = -6 }), "Factors"},
		{"FactorMinObs -1", with(func(p *Params) { p.FactorMinObs = -1 }), "FactorMinObs"},
	}
	a, b := matchedPair(7, 16, 108, 8, 3, 0)
	entries := []struct {
		name string
		call func(p Params) error
	}{
		{"Reconstruct", func(p Params) error { Reconstruct(a, p); return nil }},
		// The factor-export oracle validates through the same path.
		{"ReconstructFactors", func(p Params) error { _, _, err := reconstructFactors(a, p); return err }},
		{"ReconstructPair", func(p Params) error { ReconstructPair(a, b, ok, p); return nil }},
		{"ReconstructPairFactors", func(p Params) error { ReconstructPairFactors(a, b, p, ok); return nil }},
		{"ReconstructQuad", func(p Params) error {
			ReconstructQuad([4]*Matrix{a, b, a, b}, [4]Params{ok, ok, p, ok}, false)
			return nil
		}},
	}
	for _, tc := range cases {
		for _, ep := range entries {
			t.Run(tc.name+"/"+ep.name, func(t *testing.T) {
				var err error
				msg := panicMessage(func() { err = ep.call(tc.p) })
				switch {
				case tc.field == "" && (msg != "" || err != nil):
					t.Fatalf("valid parameters failed: panic %q, error %v", msg, err)
				case tc.field != "" && !strings.HasPrefix(msg, "sgd: "+tc.field+" "):
					t.Fatalf("panic %q, want an \"sgd: %s ...\" panic", msg, tc.field)
				}
			})
		}
	}
}

func TestPredictionRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.ObserveRow(0, []float64{1, 2, 3})
	m.ObserveRow(1, []float64{4, 5, 6})
	pred := Reconstruct(m, Params{})
	row := []float64{pred.At(1, 0), pred.At(1, 1), pred.At(1, 2)}
	if pred.Cols != 3 || row[0] != 4 || row[2] != 6 {
		t.Fatalf("row 1 = %v over %d columns", row, pred.Cols)
	}
}

// End-to-end accuracy on the real performance surfaces: train on 16
// SPEC apps, hide all but 2 entries of the remaining apps, reconstruct
// and compare — the Fig. 5a experiment in miniature. The paper reports
// quartiles within 10% and 5th/95th percentiles within 20%.
func TestSurfaceReconstructionAccuracy(t *testing.T) {
	pm, wm := perf.New(true), power.New(true)
	train, test := workload.SplitTrainTest(42, 16)
	rows := len(train) + len(test)
	bipsM := NewMatrix(rows, config.NumResources)
	powerM := NewMatrix(rows, config.NumResources)
	truthB := make([][]float64, rows)
	truthP := make([][]float64, rows)
	for i, app := range train {
		b, p := sim.BatchSurfaces(pm, wm, app)
		truthB[i], truthP[i] = b, p
		bipsM.ObserveRow(i, b)
		powerM.ObserveRow(i, p)
	}
	loIdx := config.Resource{Core: config.Narrowest, Cache: config.OneWay}.Index()
	hiIdx := config.Resource{Core: config.Widest, Cache: config.OneWay}.Index()
	for k, app := range test {
		i := len(train) + k
		b, p := sim.BatchSurfaces(pm, wm, app)
		truthB[i], truthP[i] = b, p
		bipsM.Observe(i, loIdx, b[loIdx])
		bipsM.Observe(i, hiIdx, b[hiIdx])
		powerM.Observe(i, loIdx, p[loIdx])
		powerM.Observe(i, hiIdx, p[hiIdx])
	}
	params := Params{MaxIter: 1500, Factors: 6, Reg: 0.03}
	predB := Reconstruct(bipsM, params)
	predP := Reconstruct(powerM, params)
	var errB, errP []float64
	for k := range test {
		i := len(train) + k
		for j := 0; j < config.NumResources; j++ {
			if j == loIdx || j == hiIdx {
				continue
			}
			errB = append(errB, stats.RelErrPct(predB.At(i, j), truthB[i][j]))
			errP = append(errP, stats.RelErrPct(predP.At(i, j), truthP[i][j]))
		}
	}
	for name, errs := range map[string][]float64{"throughput": errB, "power": errP} {
		box := stats.Box(errs)
		if box.P25 < -12 || box.P75 > 12 {
			t.Errorf("%s quartiles outside ±12%%: %v", name, box)
		}
		if box.P5 < -25 || box.P95 > 27 {
			t.Errorf("%s 5/95th percentiles outside the Fig. 5a band: %v", name, box)
		}
	}
}

// svdInitOracle is the SVD seed as it was before it read the entry
// list: a mean-filled mat.Dense built by re-reading the matrix and
// re-taking each known cell's log, then mat.SVDTop over the whole
// copy (mat's tests pin SVDTop to the full decomposition bit for bit).
// It is kept as the oracle svdInit must match bit for bit.
func svdInitOracle(m *Matrix, p Params, mu float64, q, pc []float64) {
	f := p.Factors
	dense := make([]int, 0, m.Rows)
	for i := 0; i < m.Rows; i++ {
		n := 0
		for j := 0; j < m.Cols; j++ {
			if m.Known(i, j) {
				n++
			}
		}
		if n*4 >= m.Cols {
			dense = append(dense, i)
		}
	}
	if len(dense) == 0 {
		return
	}
	filled := mat.NewDense(len(dense), m.Cols)
	for di, i := range dense {
		rowSum, rowN := 0.0, 0
		for j := 0; j < m.Cols; j++ {
			if m.Known(i, j) {
				rowSum += math.Log(math.Max(m.At(i, j), logFloor))
				rowN++
			}
		}
		rowMean := rowSum / float64(rowN)
		for j := 0; j < m.Cols; j++ {
			if m.Known(i, j) {
				filled.Set(di, j, math.Log(math.Max(m.At(i, j), logFloor))-mu)
			} else {
				filled.Set(di, j, rowMean-mu)
			}
		}
	}
	mat.SVDTop(filled, f, func(kk int, s float64, u, v mat.Vector) {
		for di, i := range dense {
			q[i*f+kk] = u.At(di) * math.Sqrt(s)
		}
		for j := range v.Len() {
			pc[j*f+kk] = v.At(j) * math.Sqrt(s)
		}
	})
}

// seedMatrix builds a rows×cols matrix whose first dense rows hold
// between minObs and cols known cells each, followed by sparse rows of
// two cells that the seed must skip.
func seedMatrix(seed uint64, rows, cols, dense, minObs int) *Matrix {
	r := rng.New(seed)
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		n := 2
		if i < dense {
			n = minObs + r.Intn(cols-minObs+1)
		}
		perm := make([]int, cols)
		for j := range perm {
			perm[j] = j
		}
		r.Shuffle(cols, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for _, j := range perm[:n] {
			m.Observe(i, j, 0.5+4*r.Float64())
		}
	}
	return m
}

// TestSVDSeedMatchesOracle pins the in-place top-k seed, read from the
// entry list, to svdInitOracle bit for bit: the wide shapes the
// runtime decomposes, the transpose branch (more dense rows than
// columns), rank-deficient input whose trailing singular values fall
// at or below the zero-column threshold, partially observed dense rows
// (the mean fill).
func TestSVDSeedMatchesOracle(t *testing.T) {
	p := Params{Factors: 6}
	cases := []struct {
		name string
		m    *Matrix
		p    Params
		// zeroCols is how many P columns the seed must leave all
		// zero at least — ranks past the decomposition's, and ranks
		// whose singular value is at most 1e-12 — and exactly when 0.
		zeroCols int
	}{
		{name: "12 full rows x 108", m: pairMatrix(1, 14, 108, 12, 2), p: p},
		{name: "16 full rows x 108", m: pairMatrix(2, 20, 108, 16, 3), p: p},
		{name: "32 full rows x 108", m: pairMatrix(3, 34, 108, 32, 2), p: p},
		{name: "30 rows x 27, transposed", m: pairMatrix(4, 30, 27, 30, 0), p: p},
		{name: "dense rows of 27-107 cells", m: seedMatrix(5, 20, 108, 16, 27), p: p},
		{name: "transposed, partially observed", m: seedMatrix(6, 32, 27, 30, 7), p: p},
		{name: "rank 8 in 6 rows", m: pairMatrix(8, 8, 108, 6, 2), p: Params{Factors: 8}, zeroCols: 2},
		{name: "duplicated rows", m: func() *Matrix {
			// Twelve dense rows, copies of two: rank two after
			// centring, so ranks 2–5 have zero singular values.
			src := pairMatrix(9, 2, 108, 2, 0)
			m := NewMatrix(14, 108)
			for i := 0; i < 12; i++ {
				for j := 0; j < 108; j++ {
					m.Observe(i, j, src.At(i%2, j))
				}
			}
			m.Observe(12, 5, 1)
			m.Observe(13, 50, 2)
			return m
		}(), p: p, zeroCols: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := seeded(tc.m, tc.p)
			_, seed := st.finish(true)
			f := st.f
			q, pc := make([]float64, tc.m.Rows*f), make([]float64, tc.m.Cols*f)
			svdInitOracle(tc.m, st.p, st.mu, q, pc)
			for _, c := range []struct {
				name      string
				got, want []float64
			}{{"Q", seed.Q, q}, {"P", seed.P, pc}} {
				for i := range c.want {
					if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
						t.Fatalf("%s[%d] = %v, oracle %v", c.name, i, c.got[i], c.want[i])
					}
				}
			}
			zero := 0
			for kk := 0; kk < f; kk++ {
				all := true
				for j := 0; j < tc.m.Cols; j++ {
					all = all && pc[j*f+kk] == 0
				}
				if all {
					zero++
				}
			}
			if zero < tc.zeroCols || (tc.zeroCols == 0 && zero > 0) {
				t.Fatalf("%d all-zero P columns, want %d", zero, tc.zeroCols)
			}
		})
	}
}
