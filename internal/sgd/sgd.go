// Package sgd implements the paper's PQ-reconstruction with Stochastic
// Gradient Descent (§V, Alg. 1): a collaborative-filtering matrix
// completion that, given a sparse matrix of observations — rows are
// applications, columns are the 108 resource configurations, entries
// are throughput, tail latency or power — infers every missing entry
// from the behaviour of previously-seen applications.
//
// The model is the standard biased matrix factorisation from the
// recommender-system literature the paper cites [2, 83, 89, 90]:
//
//	R̂[i][j] = μ + b[i] + c[j] + Q[i]·P[j]
//
// with rank-F factor matrices Q (rows) and P (columns) trained by SGD
// over the observed entries, optionally initialised from a truncated
// SVD of the mean-filled matrix (the paper constructs Q and P from the
// singular vectors). Alg. 1 as printed allocates full-rank factor
// matrices; with only two observations in a new application's row that
// would overfit immediately, so this implementation uses the low-rank
// form of the cited PQ-reconstruction work.
//
// There is one update order and two loops that run it. trainSerial is
// Alg. 1 as printed: one sweep over the observed entries in row-major
// order per epoch. The lane trainer (pair.go) runs up to four such
// sweeps — one per reconstruction surface — in the lanes of one SIMD
// instruction stream, each lane bit-identical to its own trainSerial,
// and is what the runtime and every fleet path ship; trainSerial is
// its reference and the path lanes that cannot share a stream (and
// hosts without AVX) take. The paper's own lock-free parallel variant
// (§V, HOGWILD! [95, 96]) is deliberately absent: it measured 2–4×
// slower than the serial sweep it parallelises and made results depend
// on the host's core count (EXPERIMENTS.md, "Deviations and why").
package sgd

import (
	"fmt"
	"math"

	"cuttlesys/internal/mat"
	"cuttlesys/internal/rng"
)

// Matrix is a sparse observation matrix: applications × resource
// configurations.
type Matrix struct {
	Rows, Cols int
	vals       []float64
	known      []bool
}

// NewMatrix returns an empty rows×cols observation matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sgd: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{
		Rows:  rows,
		Cols:  cols,
		vals:  make([]float64, rows*cols),
		known: make([]bool, rows*cols),
	}
}

// Observe records entry (i, j) = v. Re-observing overwrites — the
// runtime updates entries with measured values at the end of every
// timeslice (§IV-B).
func (m *Matrix) Observe(i, j int, v float64) {
	m.vals[i*m.Cols+j] = v
	m.known[i*m.Cols+j] = true
}

// Known reports whether entry (i, j) has been observed.
func (m *Matrix) Known(i, j int) bool { return m.known[i*m.Cols+j] }

// At returns the observed value at (i, j); meaningful only when Known.
func (m *Matrix) At(i, j int) float64 { return m.vals[i*m.Cols+j] }

// knownCount returns the number of observed entries.
func (m *Matrix) knownCount() int {
	n := 0
	for _, k := range m.known {
		if k {
			n++
		}
	}
	return n
}

// ObserveRow records a full row of observations (a "known" application
// characterised offline across all configurations).
func (m *Matrix) ObserveRow(i int, vals []float64) {
	if len(vals) != m.Cols {
		panic("sgd: ObserveRow length mismatch")
	}
	for j, v := range vals {
		m.Observe(i, j, v)
	}
}

// learningRate is Alg. 1's η.
const learningRate = 0.02

// Params controls a reconstruction.
type Params struct {
	// Factors is the latent rank F. Default 8; negative is invalid.
	Factors int
	// Reg is Alg. 1's regularisation factor λ. Default 0.05.
	Reg float64
	// MaxIter is the number of SGD sweeps over the observed entries
	// (Alg. 1's maxIter). Default 250.
	MaxIter int
	// Deprecated: Deterministic is ignored — every reconstruction follows
	// the serial sweep order. It exists only because bench/ still names it.
	Deterministic bool
	// LogSpace trains on log(v): tail latency spans four orders of
	// magnitude across configurations and loads, and the relative-error
	// objective the paper reports is additive in log space.
	LogSpace bool
	// SVDInit seeds Q and P from the truncated SVD of the mean-filled
	// matrix, as §V describes, instead of random initialisation.
	SVDInit bool
	// FactorMinObs freezes the latent factors of rows with fewer
	// observed entries than this: such rows train biases only, so their
	// predictions reduce to μ + b[i] + c[j]. One or two observations
	// cannot constrain a factor vector — letting SGD fit them drags
	// every correlated column toward the anchors, which is exactly the
	// optimistic extrapolation a QoS scan cannot afford. 0 disables;
	// negative is invalid.
	FactorMinObs int
	// Seed drives the random initialisation; SVDInit and Warm starts
	// draw nothing, so it does not affect them.
	Seed uint64
	// Warm seeds the model from previously trained factors (a fleet
	// aggregate from the model-sharing plane) instead of random or SVD
	// initialisation: μ, biases and both factor matrices start at the
	// warm state, so the model's first prediction is the fleet's and
	// local SGD sweeps only fine-tune it. Factors whose geometry or
	// value transform does not match the matrix are ignored and the
	// cold init runs as usual, and a warm fit that comes out non-finite
	// is redone cold. Rows frozen by FactorMinObs keep their
	// warm factor vectors rather than being zeroed — carrying the
	// fleet's knowledge for locally under-observed rows is the point
	// of warm-starting.
	Warm *Factors
	// WarmIters, when positive and Warm is applied, overrides MaxIter:
	// the per-machine fine-tune sweep count, the cheap end of the
	// accuracy-vs-staleness knob.
	WarmIters int
}

// Validate reports the first parameter no reconstruction can use: a
// negative rank (it would silently become the default, and move a
// runtime off the rank-6 lane kernels), a regularisation factor that
// is negative or not finite (every unobserved prediction would come
// out NaN), a negative sweep count, or a negative FactorMinObs (it
// would silently mean "disabled"). Zero values are valid — they
// select the defaults.
func (p Params) Validate() error {
	switch {
	case p.Factors < 0:
		return fmt.Errorf("sgd: Factors must be non-negative, got %d", p.Factors)
	case math.IsNaN(p.Reg) || math.IsInf(p.Reg, 0) || p.Reg < 0:
		return fmt.Errorf("sgd: Reg must be finite and non-negative, got %v", p.Reg)
	case p.MaxIter < 0:
		return fmt.Errorf("sgd: MaxIter must be non-negative, got %d", p.MaxIter)
	case p.WarmIters < 0:
		return fmt.Errorf("sgd: WarmIters must be non-negative, got %d", p.WarmIters)
	case p.FactorMinObs < 0:
		return fmt.Errorf("sgd: FactorMinObs must be non-negative, got %d", p.FactorMinObs)
	}
	return nil
}

// withDefaults fills the zero-valued parameters in. Every entry point
// passes its parameters through it, so an invalid set panics with
// Validate's error before any work starts.
func (p Params) withDefaults() Params {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if p.Factors <= 0 {
		p.Factors = 8
	}
	if p.Reg == 0 {
		p.Reg = 0.05
	}
	if p.MaxIter == 0 {
		p.MaxIter = 250
	}
	return p
}

// Prediction is a fully reconstructed matrix. Iters and Observed
// record the reconstruction's work — SGD epochs run and observed cells
// anchoring the fit — for observability; they do not affect values.
type Prediction struct {
	Rows, Cols int
	Iters      int
	Observed   int
	vals       []float64
}

// At returns the predicted value at (i, j).
func (p *Prediction) At(i, j int) float64 { return p.vals[i*p.Cols+j] }

// Row returns a copy of row i.
func (p *Prediction) Row(i int) []float64 {
	out := make([]float64, p.Cols)
	copy(out, p.vals[i*p.Cols:(i+1)*p.Cols])
	return out
}

const logFloor = 1e-9 // guards log-space transform against zeros

// Reconstruct runs Alg. 1 and returns the completed matrix.
func Reconstruct(m *Matrix, params Params) *Prediction {
	pred, _ := reconstructFull(m, params.withDefaults(), false)
	return pred
}

// Deprecated: ReconstructParallel is Reconstruct. It exists only
// because bench/ still calls it.
func ReconstructParallel(m *Matrix, params Params) *Prediction { return Reconstruct(m, params) }

// obs is one observed cell: its row and column, and its value in the
// trained space — log-transformed under LogSpace once, when
// prepareTraining gathers it, then read by the seed, every sweep and
// the render. int32 indices keep an entry at 16 bytes; a matrix is a
// few dozen rows by 108 columns.
type obs struct {
	i, j int32
	v    float64
}

// trainState is a reconstruction caught between initialisation and
// training: the gathered observations, the (possibly warm-started)
// model state, and the effective parameters after warm-iteration
// override. prepareTraining builds it, a trainer mutates it in place,
// and finish renders the dense prediction. The split exists so the
// lane trainer (pair.go) can reuse the exact serial initialisation
// and prediction code around its own sweep loop.
type trainState struct {
	m        *Matrix
	p        Params // effective params: MaxIter already warm-overridden
	entries  []obs  // row-major observation order — the serial sweep order
	mu       float64
	f        int
	q, pc    []float64
	rowBias  []float64
	colBias  []float64
	biasOnly []bool
	pred     *Prediction
	cold     *Params // a warm start's own params minus Warm: finish's redo; nil for a cold fit
}

// prepareTraining gathers observations and initialises the model
// state. When there is nothing to train, st.entries is empty: training
// is a no-op and finish returns st.pred (all zeros, Iters 0).
func prepareTraining(m *Matrix, p Params) *trainState {
	// Gather observations, transformed if requested.
	entries := make([]obs, 0, m.knownCount())
	sum := 0.0
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if !m.Known(i, j) {
				continue
			}
			v := m.At(i, j)
			if p.LogSpace {
				v = math.Log(math.Max(v, logFloor))
			}
			entries = append(entries, obs{int32(i), int32(j), v})
			sum += v
		}
	}
	pred := &Prediction{Rows: m.Rows, Cols: m.Cols, Observed: len(entries), vals: make([]float64, m.Rows*m.Cols)}
	st := &trainState{m: m, p: p, entries: entries, pred: pred}
	if len(entries) == 0 {
		return st
	}

	f := p.Factors
	warm := p.Warm
	if warm != nil && !warm.Compatible(m.Rows, m.Cols, f, p.LogSpace) {
		warm = nil
	}
	if warm != nil {
		cold := p
		cold.Warm = nil
		st.cold = &cold
		if p.WarmIters > 0 {
			p.MaxIter = p.WarmIters
		}
	}
	pred.Iters = p.MaxIter

	var mu float64
	if warm != nil {
		// Keep the fleet model's reference level: biases and factors
		// are offsets around the μ they were trained with, and local
		// sweeps re-centre through the biases if local reality drifts.
		mu = warm.Mu
	} else {
		mu = sum / float64(len(entries))
	}

	q := make([]float64, m.Rows*f) // row factors
	pc := make([]float64, m.Cols*f)
	rowBias := make([]float64, m.Rows)
	colBias := make([]float64, m.Cols)

	switch {
	case warm != nil:
		copy(q, warm.Q)
		copy(pc, warm.P)
		copy(rowBias, warm.RowBias)
		copy(colBias, warm.ColBias)
	case p.SVDInit:
		svdInit(entries, m.Cols, f, mu, q, pc, pred.vals)
	case f > 0: // f == 0 leaves the factor vectors empty; no init needed
		r := rng.New(p.Seed)
		scale := 0.1 / math.Sqrt(float64(f))
		for i := range q {
			q[i] = scale * r.Norm()
		}
		for i := range pc {
			pc[i] = scale * r.Norm()
		}
	}

	biasOnly := make([]bool, m.Rows)
	if p.FactorMinObs > 0 {
		counts := make([]int, m.Rows)
		for _, e := range entries {
			counts[e.i]++
		}
		for i, n := range counts {
			if n < p.FactorMinObs {
				biasOnly[i] = true
				if warm == nil {
					for k := 0; k < f; k++ {
						q[i*f+k] = 0
					}
				}
			}
		}
	}

	st.p = p
	st.mu = mu
	st.f = f
	st.q, st.pc = q, pc
	st.rowBias, st.colBias = rowBias, colBias
	st.biasOnly = biasOnly
	return st
}

// finish renders the dense prediction from the trained state and
// optionally captures the factor set. A warm-started fit whose state or
// prediction is non-finite is redone cold: finite warm factors can
// still overflow (two 1e200 entries multiply past MaxFloat64 in the
// first dot product), and a poisoned import must cost one cold fit,
// not every reconstruction that inherits it.
func (st *trainState) finish(capture bool) (*Prediction, *Factors) {
	if len(st.entries) == 0 {
		return st.pred, nil
	}
	m, p, f := st.m, st.p, st.f
	mu, q, pc, rowBias, colBias := st.mu, st.q, st.pc, st.rowBias, st.colBias
	pred := st.pred
	// Dense prediction; observed entries keep their measured values,
	// which the row-major entry list holds in render order.
	known := st.entries
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			var v float64
			if len(known) > 0 && int(known[0].i) == i && int(known[0].j) == j {
				v, known = known[0].v, known[1:]
			} else {
				v = mu + rowBias[i] + colBias[j] + dotf(q[i*f:(i+1)*f], pc[j*f:(j+1)*f])
			}
			if p.LogSpace {
				v = math.Exp(v)
			}
			pred.vals[i*m.Cols+j] = v
		}
	}
	if st.cold != nil && !(finite(pred.vals...) && finite(mu) && finite(q...) && finite(pc...) &&
		finite(rowBias...) && finite(colBias...)) {
		return reconstructFull(m, *st.cold, capture)
	}
	var fac *Factors
	if capture {
		fac = &Factors{
			Rows: m.Rows, Cols: m.Cols, Rank: f,
			Mu:       mu,
			Q:        q,
			P:        pc,
			RowBias:  rowBias,
			ColBias:  colBias,
			Iters:    pred.Iters,
			Observed: pred.Observed,
			LogSpace: p.LogSpace,
		}
	}
	return pred, fac
}

func reconstructFull(m *Matrix, p Params, capture bool) (*Prediction, *Factors) {
	st := prepareTraining(m, p)
	st.trainSerial()
	return st.finish(capture)
}

func dotf(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// trainSerial is Alg. 1's loop: MaxIter sweeps over the observed
// entries in row-major order.
func (st *trainState) trainSerial() {
	f, mu, eta, lam := st.f, st.mu, learningRate, st.p.Reg
	q, pc, rowBias, colBias, biasOnly := st.q, st.pc, st.rowBias, st.colBias, st.biasOnly
	for iter := 0; iter < st.p.MaxIter; iter++ {
		for _, e := range st.entries {
			i, j := int(e.i), int(e.j)
			qi := q[i*f : (i+1)*f]
			pj := pc[j*f : (j+1)*f]
			err := e.v - (mu + rowBias[i] + colBias[j] + dotf(qi, pj))
			rowBias[i] += eta * (err - lam*rowBias[i])
			colBias[j] += eta * (err - lam*colBias[j])
			if biasOnly[i] {
				continue
			}
			for k := 0; k < f; k++ {
				qk, pk := qi[k], pj[k]
				qi[k] += eta * (err*pk - lam*qk)
				pj[k] += eta * (err*qk - lam*pk)
			}
		}
	}
}

// svdInit seeds the factors from the top-F singular triplets of the
// mean-filled matrix (Q = U·√Σ, P = V·√Σ), as §V describes. Only rows
// with substantial coverage (≥ 25 % observed — the offline-trained
// "known" applications) contribute to, and receive, an initialisation:
// mean-filling a two-entry row would impose that row's anchor level on
// every column and bias its latent factors toward "uniformly low/high",
// exactly the optimistic extrapolation a scheduler cannot afford near
// a saturation knee. Sparse rows start at zero factors and learn from
// their observations alone, falling back to the bias model elsewhere.
//
// The filled matrix is built from the row-major entry list, where each
// row's observations are one contiguous run already in the trained
// value space, and mat.SVDTop decomposes it in place. It lives in work,
// the rows×cols prediction buffer, which nothing reads before finish
// overwrites every cell of it.
func svdInit(entries []obs, cols, f int, mu float64, q, pc, work []float64) {
	type run struct{ row, from, to int } // a dense row's entries[from:to]
	dense := make([]run, 0, len(work)/cols)
	for from := 0; from < len(entries); {
		to := from + 1
		for to < len(entries) && entries[to].i == entries[from].i {
			to++
		}
		if (to-from)*4 >= cols {
			dense = append(dense, run{int(entries[from].i), from, to})
		}
		from = to
	}
	if len(dense) == 0 {
		return // nothing trustworthy to decompose; keep zero init
	}
	filled := &mat.Dense{Rows: len(dense), Cols: cols, Data: work[:len(dense)*cols]}
	for di, r := range dense {
		rowSum, rowN := 0.0, r.to-r.from
		for _, e := range entries[r.from:r.to] {
			rowSum += e.v
		}
		if rowN == 0 {
			continue // cannot happen: dense rows have ≥ cols/4 known entries
		}
		rowMean := rowSum / float64(rowN)
		row := filled.Data[di*cols : (di+1)*cols]
		for j := range row {
			row[j] = rowMean - mu
		}
		for _, e := range entries[r.from:r.to] {
			row[e.j] = e.v - mu
		}
	}
	mat.SVDTop(filled, f, func(kk int, s float64, u, v []float64) {
		scale := math.Sqrt(s)
		for di, r := range dense {
			q[r.row*f+kk] = u[di] * scale
		}
		for j, x := range v {
			pc[j*f+kk] = x * scale
		}
	})
}
