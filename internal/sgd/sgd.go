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
// over the observed entries. There is one recipe: a cold fit seeds Q
// and P from the truncated SVD of the mean-filled matrix (the paper
// constructs them from the singular vectors), a warm fit from the
// fleet's factors (Params.Warm), and every fit trains on
// log(max(v, 1e-9)) and renders exp — tail latency spans four orders
// of magnitude across configurations and loads, and the relative
// error the paper reports is additive in log space. Alg. 1 as printed
// allocates full-rank factor matrices; with only two observations in
// a new application's row that would overfit immediately, so this
// implementation uses the low-rank form of the cited
// PQ-reconstruction work, at rank 6, λ 0.03 and 300 sweeps unless a
// Params field says otherwise.
//
// The offline-characterised rows that seed every reconstruction never
// change during a run, so a Matrix leads with a shared, read-only Block
// of them (NewBlock, Block.Matrix): every machine's matrices point at
// one copy, and a Prediction renders only the matrix's own rows. NewMatrix
// is a matrix on the empty block, so there is one code path. A block
// changes no bit of any fit: its rows train exactly as the same rows
// observed one by one would.
//
// There is one update order and two loops that run it. trainSerial is
// Alg. 1 as printed: one sweep over the observed entries in row-major
// order per epoch. The lane trainer (pair.go) runs a pair of such
// sweeps — one per reconstruction surface — in the lanes of one SIMD
// instruction stream, each lane bit-identical to its own trainSerial,
// and is what the runtime and every fleet path ship; trainSerial is
// its reference and the path lanes that cannot share a stream (and
// hosts without AVX-512) take. The paper's own lock-free parallel variant
// (§V, HOGWILD! [95, 96]) is deliberately absent: it measured 2–4×
// slower than the serial sweep it parallelises and made results depend
// on the host's core count (EXPERIMENTS.md, "Deviations and why").
package sgd

import (
	"fmt"
	"math"

	"cuttlesys/internal/mat"
)

// Block is a read-only, fully observed leading block of rows that any
// number of matrices share: the offline-characterised "known"
// applications of §V, whose rows no run changes. A block is immutable
// once built and safe for concurrent use. Besides the values it holds
// whether every cell renders finite, so no warm fit re-checks them.
type Block struct {
	Rows, Cols int // fixed by NewBlock
	vals       []float64
	nonFinite  bool // some cell's exp(log(max(v, logFloor))) is not finite
}

// NewBlock returns the block of the given fully observed rows, each
// cols values long, copied into one backing array.
func NewBlock(cols int, rows ...[]float64) *Block {
	if cols <= 0 || len(rows) > math.MaxUint32/cols {
		panic(fmt.Sprintf("sgd: invalid block dimensions %dx%d", len(rows), cols))
	}
	b := &Block{Rows: len(rows), Cols: cols, vals: make([]float64, 0, len(rows)*cols)}
	for _, row := range rows {
		if len(row) != cols {
			panic("sgd: NewBlock row length mismatch")
		}
		b.vals = append(b.vals, row...)
	}
	for _, v := range b.vals {
		b.nonFinite = b.nonFinite || !finite(math.Exp(math.Log(math.Max(v, logFloor))))
	}
	return b
}

// Row returns row i's values. The slice is the block's own: callers
// must not modify it.
func (b *Block) Row(i int) []float64 { return b.vals[i*b.Cols : (i+1)*b.Cols : (i+1)*b.Cols] }

// Matrix returns a rows×Cols observation matrix whose leading b.Rows
// rows are the block and whose remaining rows, its own, start empty.
// The rows must cover the block, and the cells be at most 2³²: a
// reconstruction names an observed cell by its uint32 row-major index.
func (b *Block) Matrix(rows int) *Matrix {
	cols := b.Cols
	if rows <= 0 || rows < b.Rows || cols <= 0 || rows > math.MaxUint32/cols {
		panic(fmt.Sprintf("sgd: invalid matrix dimensions %dx%d on a %d-row block", rows, cols, b.Rows))
	}
	own := (rows - b.Rows) * cols
	return &Matrix{Rows: rows, Cols: cols, block: b, vals: make([]float64, own), known: make([]bool, own)}
}

// Matrix is a sparse observation matrix: applications × resource
// configurations. Its leading rows are a shared Block, possibly empty;
// the rest are its own, observed one entry at a time. Rows and columns
// are numbered across the whole matrix, block rows first.
type Matrix struct {
	Rows, Cols int
	block      *Block
	vals       []float64 // own rows, row-major from row block.Rows
	known      []bool
}

// NewMatrix returns an empty rows×cols observation matrix: a matrix on
// the empty block, every row its own. The dimensions must be positive
// and the cells at most 2³².
func NewMatrix(rows, cols int) *Matrix { return (&Block{Cols: cols}).Matrix(rows) }

// own returns own cell (i, j)'s index into vals and known; a block row
// panics — the block is read-only.
func (m *Matrix) own(i, j int) int {
	if i < m.block.Rows {
		panic(fmt.Sprintf("sgd: Observe(%d, %d) on a row of the matrix's read-only block (rows 0-%d)", i, j, m.block.Rows-1))
	}
	return (i-m.block.Rows)*m.Cols + j
}

// Observe records entry (i, j) = v. Re-observing overwrites — the
// runtime updates entries with measured values at the end of every
// timeslice (§IV-B). Observing a block row panics.
func (m *Matrix) Observe(i, j int, v float64) {
	c := m.own(i, j)
	m.vals[c] = v
	m.known[c] = true
}

// Known reports whether entry (i, j) has been observed; every block
// entry has.
func (m *Matrix) Known(i, j int) bool {
	return i < m.block.Rows || m.known[(i-m.block.Rows)*m.Cols+j]
}

// At returns the observed value at (i, j); meaningful only when Known.
func (m *Matrix) At(i, j int) float64 {
	if i < m.block.Rows {
		return m.block.vals[i*m.Cols+j]
	}
	return m.vals[(i-m.block.Rows)*m.Cols+j]
}

// knownCount returns the number of observed entries, the block's
// included.
func (m *Matrix) knownCount() int {
	n := len(m.block.vals)
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

// Params controls a reconstruction. The zero value is the runtime's
// recipe: rank 6, λ 0.03, 300 sweeps, no frozen rows, a cold start.
type Params struct {
	// Factors is the latent rank F. Default 6, the lane kernel's rank;
	// negative is invalid.
	Factors int
	// Reg is Alg. 1's regularisation factor λ. Default 0.03.
	Reg float64
	// MaxIter is the number of SGD sweeps over the observed entries
	// (Alg. 1's maxIter). Default 300.
	MaxIter int
	// Deprecated: Deterministic is ignored — every reconstruction follows
	// the serial sweep order. It exists only because bench/ still names it.
	Deterministic bool
	// Deprecated: LogSpace is ignored — every fit trains in log space.
	// It exists only because bench/ still names it.
	LogSpace bool
	// Deprecated: SVDInit is ignored — every cold fit starts from the
	// SVD. It exists only because bench/ still names it.
	SVDInit bool
	// FactorMinObs freezes the latent factors of rows with fewer
	// observed entries than this: such rows train biases only, so their
	// predictions reduce to μ + b[i] + c[j]. One or two observations
	// cannot constrain a factor vector — letting SGD fit them drags
	// every correlated column toward the anchors, which is exactly the
	// optimistic extrapolation a QoS scan cannot afford. 0 disables;
	// negative is invalid.
	FactorMinObs int
	// Deprecated: Seed is ignored — no start draws anything. It exists
	// only because bench/ still names it.
	Seed uint64
	// Warm seeds the model from previously trained factors (a fleet
	// aggregate from the model-sharing plane) instead of the SVD: μ,
	// biases and both factor matrices start at the warm state, so the
	// model's first prediction is the fleet's and local SGD sweeps only
	// fine-tune it. Factors whose geometry does not match the matrix,
	// or that hold a non-finite value, are ignored and the cold start
	// runs as usual, and a warm fit that comes out non-finite is redone
	// cold. Rows frozen by FactorMinObs keep their warm factor vectors
	// rather than being zeroed — carrying the fleet's knowledge for
	// locally under-observed rows is the point of warm-starting.
	Warm *Factors
	// WarmIters, when positive and Warm is applied, overrides MaxIter:
	// the per-machine fine-tune sweep count, the cheap end of the
	// accuracy-vs-staleness knob.
	WarmIters int
}

// Validate reports the first parameter no reconstruction can use: a
// negative rank (no factor matrix has one), a regularisation factor that
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
	if p.Factors == 0 {
		p.Factors = pairFactors
	}
	if p.Reg == 0 {
		p.Reg = 0.03
	}
	if p.MaxIter == 0 {
		p.MaxIter = 300
	}
	return p
}

// Prediction is a reconstructed matrix: every entry of the matrix's
// own rows. The rows of its block are fully observed, never change and
// nothing reads them back from a prediction, so a prediction neither
// allocates nor renders them; its row indices are the matrix's. Iters
// and Observed record the reconstruction's work — SGD epochs run and
// observed cells anchoring the fit, the block's included — for
// observability; they do not affect values.
type Prediction struct {
	Rows, Cols int
	Iters      int
	Observed   int
	block      int       // the matrix's block rows, which are not rendered
	vals       []float64 // own rows, row-major from row block
}

// At returns the predicted value at (i, j). A row of the matrix's block
// panics: the block is not rendered.
func (p *Prediction) At(i, j int) float64 {
	if i < p.block {
		panic("sgd: Prediction.At on a row of the matrix's block, which a prediction does not render")
	}
	return p.vals[(i-p.block)*p.Cols+j]
}

const logFloor = 1e-9 // guards the log transform against zeros

// Reconstruct runs Alg. 1 and returns the completed matrix.
func Reconstruct(m *Matrix, params Params) *Prediction {
	pred, _ := reconstructFull(m, params.withDefaults(), false)
	return pred
}

// Deprecated: ReconstructParallel is Reconstruct. It exists only
// because bench/ still calls it.
func ReconstructParallel(m *Matrix, params Params) *Prediction { return Reconstruct(m, params) }

// trainState is one lane's reconstruction from gather to render: its
// observations, its model state and the effective parameters after
// the warm-iteration override. prepareTraining gathers the entries,
// place hands the model state its blocks and init seeds it there, a
// trainer sweeps it in place, and finish renders the dense prediction
// from it. The lane trainer (pair.go) places several lanes in one set
// of interleaved blocks and runs the same gather, seed and render
// around its own sweep loop.
type trainState struct {
	m *Matrix
	p Params // effective params: MaxIter already warm-overridden
	// cells names each observed cell by its row-major index i·Cols+j,
	// in row-major order — the serial sweep order — and entry t's value
	// in the trained space, log-transformed once, when prepareTraining
	// gathers it, is vals[vs·t]: 12 bytes an entry. vs is 2 where a
	// pair's two lanes interleave their values (gatherLanes), 1
	// otherwise. vals ends in one entry more, μ, the
	// value the wide kernel's padding cells read (see pad).
	cells []uint32
	vals  []float64
	vs    int
	live  int // entries before the first one in a bias-frozen row
	mu    float64
	f     int
	// The model state: row i's factor k at rowP[i·blk + w·k] and its
	// bias at rowP[i·blk + w·f], columns alike in colP. The slices
	// start at the lane's own offset into blocks w lanes wide (see
	// blockLen); a lane that trains alone has w = 1.
	rowP, colP []float64
	w, blk     int
	biasOnly   []bool
	pred       *Prediction
	// work is the SVD seed's scratch (see svdInit): the prediction's
	// own values, or the array the lanes' predictions share.
	work []float64
	cold *Params // a warm start's own params minus Warm: finish's redo; nil for a cold fit
}

// prepareTraining gathers the observations into vals, with stride vs
// — a buffer of its own when vals is nil — and settles the effective
// parameters and μ. The block's entries come first, every cell of its
// rows. The prediction's values go in out, (Rows − block rows) × Cols
// long — a buffer of its own when out is nil. When there is nothing to
// train, st.cells is empty: training is a no-op and finish returns
// st.pred (all zeros, Iters 0).
func prepareTraining(m *Matrix, p Params, vals []float64, vs int, out []float64) *trainState {
	b := m.block
	n := m.knownCount()
	if vals == nil {
		vals, vs = make([]float64, n+1), 1
	}
	if out == nil {
		out = make([]float64, (m.Rows-b.Rows)*m.Cols)
	}
	cells := make([]uint32, 0, n)
	biasOnly := make([]bool, m.Rows)
	live := -1
	sum := 0.0
	for i := 0; i < m.Rows; i++ {
		before := len(cells)
		for j := 0; j < m.Cols; j++ {
			if !m.Known(i, j) {
				continue
			}
			v := math.Log(math.Max(m.At(i, j), logFloor))
			vals[vs*len(cells)] = v
			cells = append(cells, uint32(i*m.Cols+j))
			sum += v
		}
		// Rows with fewer observations than FactorMinObs train biases
		// only; the lane kernel stops at the first entry of one.
		if k := len(cells) - before; k < p.FactorMinObs {
			biasOnly[i] = true
			if live < 0 && k > 0 {
				live = before
			}
		}
	}
	if live < 0 {
		live = len(cells)
	}
	pred := &Prediction{Rows: m.Rows, Cols: m.Cols, Observed: len(cells), block: b.Rows, vals: out}
	st := &trainState{m: m, p: p, cells: cells, vals: vals, vs: vs, live: live, biasOnly: biasOnly, pred: pred, work: out}
	if len(cells) == 0 {
		return st
	}

	if p.Warm != nil && p.Warm.Compatible(m.Rows, m.Cols, p.Factors) {
		cold := p
		cold.Warm = nil
		st.cold = &cold
		if p.WarmIters > 0 {
			p.MaxIter = p.WarmIters
		}
		// Keep the fleet model's reference level: biases and factors
		// are offsets around the μ they were trained with, and local
		// sweeps re-centre through the biases if local reality drifts.
		st.mu = p.Warm.Mu
	} else {
		st.mu = sum / float64(len(cells))
	}
	pred.Iters = p.MaxIter
	st.p, st.f = p, p.Factors
	vals[len(vals)-1] = st.mu
	return st
}

// pad is the index of the trailing μ entry.
func (st *trainState) pad() int { return (len(st.vals) - 1) / st.vs }

// place gives the lane its model state: zeroed blocks, w lanes wide,
// rowP and colP already offset to the lane.
func (st *trainState) place(rowP, colP []float64, w int) {
	st.rowP, st.colP, st.w, st.blk = rowP, colP, w, blockLen(w, st.f)
}

// alone places the lane in one-lane blocks of its own.
func (st *trainState) alone() {
	blk := blockLen(1, st.f)
	st.place(make([]float64, st.m.Rows*blk), make([]float64, st.m.Cols*blk), 1)
}

// init seeds the placed model state: from the warm start, or else
// from the SVD of the mean-filled matrix with the factors of
// bias-frozen rows zeroed. Biases start at zero unless warm.
func (st *trainState) init() {
	if len(st.cells) == 0 {
		return
	}
	m, f, w, blk := st.m, st.f, st.w, st.blk
	if st.cold != nil {
		warm := st.p.Warm
		for i := 0; i < m.Rows; i++ {
			ri := st.rowP[i*blk:]
			for k := 0; k < f; k++ {
				ri[w*k] = warm.Q[i*f+k]
			}
			ri[w*f] = warm.RowBias[i]
		}
		for j := 0; j < m.Cols; j++ {
			cj := st.colP[j*blk:]
			for k := 0; k < f; k++ {
				cj[w*k] = warm.P[j*f+k]
			}
			cj[w*f] = warm.ColBias[j]
		}
		return // frozen rows keep their warm factors
	}
	st.svdInit()
	for i, frozen := range st.biasOnly {
		if frozen {
			for k := 0; k < f; k++ {
				st.rowP[i*blk+w*k] = 0
			}
		}
	}
}

// finish renders the dense prediction from the trained state and
// optionally captures the factor set. A warm-started fit whose state or
// prediction is non-finite is redone cold: finite warm factors can
// still overflow (two 1e200 entries multiply past MaxFloat64 in the
// first dot product), and a poisoned import must cost one cold fit,
// not every reconstruction that inherits it.
func (st *trainState) finish(capture bool) (*Prediction, *Factors) {
	if len(st.cells) == 0 {
		clear(st.pred.vals) // another lane's seed may have used them
		return st.pred, nil
	}
	m, f, w, blk := st.m, st.f, st.w, st.blk
	pred := st.pred
	// Dense prediction of the own rows, rendered out of log space;
	// observed entries render exp of their logged measured values
	// (within two ulps of the measurement), which the row-major entry
	// list holds in render order after the block's entries, one a cell.
	t := len(m.block.vals)
	for i := m.block.Rows; i < m.Rows; i++ {
		ri := st.rowP[i*blk:]
		out := pred.vals[(i-m.block.Rows)*m.Cols:]
		for j := 0; j < m.Cols; j++ {
			c := i*m.Cols + j
			var v float64
			if t < len(st.cells) && int(st.cells[t]) == c {
				v = st.vals[st.vs*t]
				t++
			} else {
				cj := st.colP[j*blk:]
				dot := 0.0
				for k := 0; k < f; k++ {
					dot += ri[w*k] * cj[w*k]
				}
				v = st.mu + ri[w*f] + cj[w*f] + dot
			}
			out[j] = math.Exp(v)
		}
	}
	// The block's cells would render exp of their trained values, which
	// NewBlock checked once.
	if st.cold != nil && (m.block.nonFinite || !(finite(pred.vals...) && finite(st.mu) && st.finiteState())) {
		return reconstructFull(m, *st.cold, capture)
	}
	if !capture {
		return pred, nil
	}
	fac := &Factors{
		Rows: m.Rows, Cols: m.Cols, Rank: f,
		Mu:       st.mu,
		Q:        make([]float64, m.Rows*f),
		P:        make([]float64, m.Cols*f),
		RowBias:  make([]float64, m.Rows),
		ColBias:  make([]float64, m.Cols),
		Iters:    pred.Iters,
		Observed: pred.Observed,
	}
	for i := range fac.RowBias {
		ri := st.rowP[i*blk:]
		for k := 0; k < f; k++ {
			fac.Q[i*f+k] = ri[w*k]
		}
		fac.RowBias[i] = ri[w*f]
	}
	for j := range fac.ColBias {
		cj := st.colP[j*blk:]
		for k := 0; k < f; k++ {
			fac.P[j*f+k] = cj[w*k]
		}
		fac.ColBias[j] = cj[w*f]
	}
	return pred, fac
}

// finiteState reports whether every factor and bias of the lane is
// finite.
func (st *trainState) finiteState() bool {
	for _, b := range []struct {
		p []float64
		n int
	}{{st.rowP, st.m.Rows}, {st.colP, st.m.Cols}} {
		for e := 0; e < b.n; e++ {
			for k := 0; k <= st.f; k++ {
				if !finite(b.p[e*st.blk+st.w*k]) {
					return false
				}
			}
		}
	}
	return true
}

func reconstructFull(m *Matrix, p Params, capture bool) (*Prediction, *Factors) {
	st := prepareTraining(m, p, nil, 0, nil)
	if len(st.cells) > 0 {
		st.alone()
		st.init()
		st.trainSerial()
	}
	return st.finish(capture)
}

// trainSerial is Alg. 1's loop: MaxIter sweeps over the observed
// entries in row-major order.
func (st *trainState) trainSerial() {
	for iter := 0; iter < st.p.MaxIter; iter++ {
		st.sweep(0, len(st.cells))
	}
}

// sweep trains entries [from, to) once, in order: Alg. 1's update on
// the lane's blocks. The lane trainer sweeps each lane's entries past
// the kernel's prefix this way, so the kernel's oracle and its tails
// share one loop.
func (st *trainState) sweep(from, to int) {
	if from >= to {
		return
	}
	f, w, blk := st.f, st.w, st.blk
	n := w * f // a block's factor elements; the bias follows
	mu, eta, lam := st.mu, learningRate, st.p.Reg
	cols := st.m.Cols
	i := int(st.cells[from]) / cols
	rowStart := i * cols
	for t := from; t < to; t++ {
		c := int(st.cells[t])
		for c >= rowStart+cols {
			i++
			rowStart += cols
		}
		j := c - rowStart
		ri := st.rowP[i*blk : i*blk+n+1]
		cj := st.colP[j*blk : j*blk+n+1]
		qi, pj := ri[:n], cj[:n]
		dot := 0.0
		for k := 0; k < n; k += w {
			dot += qi[k] * pj[k]
		}
		err := st.vals[st.vs*t] - (mu + ri[n] + cj[n] + dot)
		ri[n] += eta * (err - lam*ri[n])
		cj[n] += eta * (err - lam*cj[n])
		if st.biasOnly[i] {
			continue
		}
		for k := 0; k < n; k += w {
			qk, pk := qi[k], pj[k]
			qi[k] += eta * (err*pk - lam*qk)
			pj[k] += eta * (err*qk - lam*pk)
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
// value space, and mat.SVDTop decomposes it in place. It lives in
// st.work — the prediction's values, or the array the lanes'
// predictions share, which nothing reads before finish overwrites
// every cell the lane renders — or, where that is too short for the
// dense rows, the block's among them, in a buffer of its own. It takes
// the tall one of its two forms: with fewer dense rows than columns
// (the usual case) transposed, dense row di's value at column j at
// [j·len(dense) + di], so that its element-major layout is the one the
// Jacobi sweep rotates in place.
func (st *trainState) svdInit() {
	cells, cols, mu := st.cells, st.m.Cols, st.mu
	type run struct{ row, from, to int } // a dense row's entries [from, to)
	dense := make([]run, 0, st.m.Rows)
	for from := 0; from < len(cells); {
		row := int(cells[from]) / cols
		to := from + 1
		for to < len(cells) && int(cells[to]) < (row+1)*cols {
			to++
		}
		if (to-from)*4 >= cols {
			dense = append(dense, run{row, from, to})
		}
		from = to
	}
	if len(dense) == 0 {
		return // nothing trustworthy to decompose; keep zero init
	}
	nd := len(dense)
	work := st.work
	if len(work) < nd*cols {
		work = make([]float64, nd*cols)
	}
	// Cell (di, j) of the filled matrix at [di*rowStep + j*colStep].
	tall := nd < cols
	filled := &mat.Dense{Rows: nd, Cols: cols, Data: work[:nd*cols]}
	rowStep, colStep := cols, 1
	if tall {
		filled.Rows, filled.Cols = cols, nd
		rowStep, colStep = 1, nd
	}
	for di, r := range dense {
		rowSum := 0.0
		for t := r.from; t < r.to; t++ {
			rowSum += st.vals[st.vs*t]
		}
		rowMean := rowSum / float64(max(r.to-r.from, 1)) // a run holds at least its first entry
		row := filled.Data[di*rowStep:]
		for j := 0; j < cols; j++ {
			row[j*colStep] = rowMean - mu
		}
		for t := r.from; t < r.to; t++ {
			row[(int(cells[t])-r.row*cols)*colStep] = st.vals[st.vs*t] - mu
		}
	}
	f, w, blk := st.f, st.w, st.blk
	mat.SVDTop(filled, f, func(kk int, s float64, u, v mat.Vector) {
		if tall {
			u, v = v, u
		}
		scale := math.Sqrt(s)
		for di, r := range dense {
			st.rowP[r.row*blk+w*kk] = u.At(di) * scale
		}
		for j := range v.Len() {
			st.colP[j*blk+w*kk] = v.At(j) * scale
		}
	})
}
