package dds

// SeparableObjective is a table-driven objective of the separable form
//
//	score(x) = Finish(Base + Σ_d Terms[d][x[d]])
//
// over K running accumulators: choosing configuration j for dimension
// d contributes the K-vector Terms[d][j·K : (j+1)·K] to the
// accumulators, and Finish folds the final accumulator vector into the
// scalar score. The CuttleSys batch objective (§VI-A) fits exactly:
// K = 4 accumulators (log-throughput sum, power, cache ways, half-way
// count), per-cell terms precomputed once per decision quantum, and a
// Finish that applies the geometric mean and the soft penalties.
//
// The payoff is evaluation cost. A full evaluation is K·Dims table
// additions — no transcendental calls, no config lookups, no
// allocation — and SearchSeparable goes further: because accumulators
// are folded strictly in ascending-dimension order, a worker can keep
// the per-dimension prefix accumulators of its parent point and
// re-score a candidate from the first dimension that changed. The
// float additions below that dimension are literally the same
// operations in the same order, so the incremental score is
// bit-identical to a from-scratch evaluation, not merely close.
//
// Terms must not be mutated while a search runs; Finish must be pure
// and safe for concurrent calls (workers invoke it in parallel) and
// must not retain acc.
type SeparableObjective struct {
	// K is the number of running accumulators.
	K int
	// Base holds the accumulators' starting values (length K).
	Base []float64
	// Terms holds, for each dimension d, the per-configuration
	// contributions flattened as Terms[d][j*K+k] for configuration j
	// and accumulator k.
	Terms [][]float64
	// Finish folds the accumulator vector into the score.
	Finish func(acc []float64) float64

	scratch []float64 // Eval's accumulator; see Eval
}

// eval scores x from scratch into acc: accumulators start at Base and
// gain each dimension's terms in ascending-dimension order. Every
// incremental path reproduces exactly this addition sequence.
//
//hot:path full table evaluation — pure additions, no logs, no allocation
func (s *SeparableObjective) eval(acc []float64, x []int) float64 {
	copy(acc, s.Base)
	k := s.K
	for d, j := range x {
		t := s.Terms[d][j*k : (j+1)*k]
		for i := 0; i < k; i++ {
			acc[i] += t[i]
		}
	}
	return s.Finish(acc)
}

// Eval scores x. It reuses an internal accumulator, so it is not safe
// for concurrent use; workers inside SearchSeparable carry their own
// state and never touch it.
func (s *SeparableObjective) Eval(x []int) float64 {
	if len(s.scratch) != s.K {
		s.scratch = make([]float64, s.K)
	}
	return s.eval(s.scratch, x)
}

// Func adapts s to a plain Objective. The closure allocates a fresh
// accumulator per call, so it is safe for concurrent calls — it is the
// full-evaluation path the GA and SearchReference take, not the fast
// one.
func (s *SeparableObjective) Func() Objective {
	return func(x []int) float64 {
		acc := make([]float64, s.K)
		return s.eval(acc, x)
	}
}

// validate panics when the table layout is inconsistent with p.
func (s *SeparableObjective) validate(p Params) {
	switch {
	case s.K <= 0:
		panic("dds: SeparableObjective.K must be positive")
	case len(s.Base) != s.K:
		panic("dds: SeparableObjective.Base length must equal K")
	case s.Finish == nil:
		panic("dds: SeparableObjective.Finish must be set")
	case len(s.Terms) != p.Dims:
		panic("dds: SeparableObjective.Terms must have one row per dimension")
	}
	for _, t := range s.Terms {
		if len(t) < p.NumConfigs*s.K {
			panic("dds: SeparableObjective.Terms row shorter than NumConfigs*K")
		}
	}
}

// SearchSeparable runs (parallel) DDS over obj and returns the best
// point found. It makes the decisions SearchReference(obj.Func(),
// params) makes — same Best, BestVal bits and Evals — but scores
// candidates incrementally: each worker keeps the prefix accumulators
// of its local best and re-accumulates only from the first perturbed
// dimension. Late DDS iterations perturb ~1 of Dims dimensions, so most
// evaluations touch a short suffix instead of the whole vector. The
// eval path performs zero allocations. It panics on invalid parameters
// or an objective whose table does not fit them.
func SearchSeparable(obj *SeparableObjective, params Params) Result {
	p := params.withDefaults()
	p.validate()
	obj.validate(p)
	return runSearch(p, obj)
}

// IncrementalEvaluator is the exported form of the per-worker
// incremental evaluation context the engine uses: Rebase fixes the
// parent point, Eval scores a candidate that shares the parent's first
// dmin dimensions. Once constructed, neither call allocates. It exists
// so callers outside the engine — the decide-loop benchmarks, notably
// — can measure and reuse the exact eval path the search runs.
type IncrementalEvaluator struct {
	w sepWorker
}

// NewIncremental returns an incremental evaluator for dims-dimensional
// candidates. The objective must satisfy the same layout contract as
// SearchSeparable (one Terms row per dimension).
func (s *SeparableObjective) NewIncremental(dims int) *IncrementalEvaluator {
	return &IncrementalEvaluator{w: *newSepWorker(s, dims)}
}

// Rebase fixes the parent point subsequent Eval calls diff against.
func (e *IncrementalEvaluator) Rebase(parent []int) { e.w.rebase(parent) }

// Eval scores cand, which must agree with the rebased parent on every
// dimension below dmin. The score is bit-identical to a from-scratch
// evaluation.
func (e *IncrementalEvaluator) Eval(cand []int, dmin int) float64 { return e.w.eval(cand, dmin) }

// sepWorker is one worker's incremental evaluation context. pre holds
// the parent point's prefix accumulators: pre[d·K : (d+1)·K] is the
// accumulator vector after folding dimensions [0, d) — pre[0] is Base,
// pre[Dims] the parent's full accumulation. A candidate sharing the
// parent's first dmin dimensions starts from pre[dmin] and folds only
// the suffix; the shared prefix was produced by the very same
// left-to-right additions, so the result is bit-identical to eval.
type sepWorker struct {
	o       *SeparableObjective
	dims    int
	pre     []float64
	acc     []float64
	nScored int64
}

func newSepWorker(o *SeparableObjective, dims int) *sepWorker {
	return &sepWorker{
		o:    o,
		dims: dims,
		pre:  make([]float64, (dims+1)*o.K),
		acc:  make([]float64, o.K),
	}
}

//hot:path parent prefix rebuild — pure additions, no logs, no allocation
func (w *sepWorker) rebase(parent []int) {
	k := w.o.K
	if k == 4 {
		pre := w.pre
		b := w.o.Base
		a0, a1, a2, a3 := b[0], b[1], b[2], b[3]
		pre[0], pre[1], pre[2], pre[3] = a0, a1, a2, a3
		for d, j := range parent {
			t := w.o.Terms[d][j*4:]
			a0 += t[0]
			a1 += t[1]
			a2 += t[2]
			a3 += t[3]
			n := pre[(d+1)*4:]
			n[0], n[1], n[2], n[3] = a0, a1, a2, a3
		}
		return
	}
	copy(w.pre[:k], w.o.Base)
	for d, j := range parent {
		t := w.o.Terms[d][j*k : (j+1)*k]
		prev := w.pre[d*k : (d+1)*k]
		next := w.pre[(d+1)*k : (d+2)*k]
		for i := 0; i < k; i++ {
			next[i] = prev[i] + t[i]
		}
	}
}

//hot:path incremental candidate evaluation — pure additions, no logs, no allocation
func (w *sepWorker) eval(cand []int, dmin int) float64 {
	k := w.o.K
	w.nScored += int64(w.dims - dmin)
	if k == 4 {
		// Unrolled fold for the CuttleSys accumulator width: the four
		// sums live in registers across the whole suffix.
		pre := w.pre[dmin*4:]
		a0, a1, a2, a3 := pre[0], pre[1], pre[2], pre[3]
		for d := dmin; d < w.dims; d++ {
			t := w.o.Terms[d][cand[d]*4:]
			a0 += t[0]
			a1 += t[1]
			a2 += t[2]
			a3 += t[3]
		}
		acc := w.acc
		acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
		return w.o.Finish(acc)
	}
	copy(w.acc, w.pre[dmin*k:(dmin+1)*k])
	for d := dmin; d < w.dims; d++ {
		t := w.o.Terms[d][cand[d]*k : (cand[d]+1)*k]
		for i := 0; i < k; i++ {
			w.acc[i] += t[i]
		}
	}
	return w.o.Finish(w.acc)
}

func (w *sepWorker) scored() int64 { return w.nScored }
