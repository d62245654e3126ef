// Package dds implements Dynamically Dimensioned Search (§VI, Alg. 2)
// — the design-space exploration algorithm CuttleSys uses to pick a
// per-job combination of core configurations and cache allocations.
//
// DDS (Tolson & Shoemaker [86]) perturbs a shrinking random subset of
// the dimensions of the current best point: early iterations move many
// dimensions (global exploration), late iterations few (local
// refinement), with the inclusion probability 1 − log(i)/log(maxIter).
// Perturbation magnitudes are Gaussian with standard deviation
// r·#configs, reflected at the domain bounds.
//
// The parallel variant follows Alg. 2: workers share the global best
// point at an iteration barrier, independently generate
// pointsPerIteration candidates each, and worker groups use different
// perturbation parameters r = (r1…r4) so they explore at different
// scales (§VI-B). Worker 0 aggregates the per-worker bests between
// barriers.
//
// The engine scores a SeparableObjective (separable.go): a precomputed
// score table evaluated incrementally — each worker keeps prefix
// accumulators for its local best and re-scores only from the first
// dimension perturb actually changed, bit-identical to the full
// evaluation because the accumulation order is preserved, but an order
// of magnitude cheaper in late iterations.
//
// Workers are logical: Alg. 2's radius groups and candidate batches,
// each with its own RNG stream, local best, evaluator and candidate
// scratch. Each iteration runs the batches on the caller in worker
// order — about 60 µs of work per iteration is less than a fan-out
// costs — so the search starts no goroutine, and its result,
// Result.Points included, is the same at any GOMAXPROCS.
// SearchReference (reference.go) preserves the pre-fast-path engine
// over a plain closure Objective, one goroutine per worker each
// iteration; it is the oracle of the equivalence tests and the
// benchmarks' baseline, and no production path runs it.
package dds

import (
	"math"

	"cuttlesys/internal/rng"
)

// Fig. 6's search shape, fixed: each worker draws pointsPerIter
// candidates per iteration, and worker w perturbs at radius
// radii[w·len(radii)/workers], so each quarter of the workers explores
// at one scale (§VI-B).
const pointsPerIter = 10

var radii = [...]float64{0.2, 0.3, 0.4, 0.5}

// Objective scores a candidate decision vector; higher is better. Each
// element of x is a configuration index in [0, NumConfigs). It is the
// plain-closure form SearchReference and the GA take
// (SeparableObjective.Func); objectives must be safe for concurrent
// calls when Workers > 1.
type Objective func(x []int) float64

// Params configures a search. The defaults mirror Fig. 6 of the paper.
type Params struct {
	// Dims is the number of decision variables — one per batch job.
	Dims int
	// NumConfigs is the per-dimension domain size (#confs = 108: 27
	// core configurations × 4 cache allocations, §VIII-A3).
	NumConfigs int
	// MaxIter is the number of barrier-synchronised iterations.
	// Default 40 (Fig. 6).
	MaxIter int
	// InitialPoints is the size of the random starting set. Default 50
	// (Fig. 6).
	InitialPoints int
	// Workers is the number of Alg. 2 workers (radius groups and
	// candidate batches); 1 runs the original serial DDS. Default 1.
	Workers int
	// Seed drives all randomness.
	Seed uint64
	// Record retains every evaluated point in Result.Points — used by
	// the Fig. 10a exploration comparison. Points are ordered by
	// (iteration, worker, point) regardless of GOMAXPROCS.
	Record bool
	// Init optionally provides starting points (e.g. the previous
	// timeslice's allocation); each must have length Dims.
	Init [][]int
}

func (p Params) withDefaults() Params {
	if p.MaxIter == 0 {
		p.MaxIter = 40
	}
	if p.InitialPoints == 0 {
		p.InitialPoints = 50
	}
	if p.Workers == 0 {
		p.Workers = 1
	}
	return p
}

// validate panics on parameters neither engine can run. Both call it
// after withDefaults, so Workers 0 has already become 1.
func (p Params) validate() {
	switch {
	case p.Dims <= 0 || p.NumConfigs <= 0:
		panic("dds: Dims and NumConfigs must be positive")
	case p.Workers < 0:
		panic("dds: Workers must not be negative")
	}
	for _, x := range p.Init {
		if len(x) != p.Dims {
			panic("dds: Init point with wrong dimensionality")
		}
	}
}

// Point is one evaluated candidate.
type Point struct {
	X   []int
	Val float64
}

// Result is the outcome of a search.
type Result struct {
	Best    []int
	BestVal float64
	Evals   int
	// DimsScored counts the per-dimension score contributions the
	// search actually accumulated. Full evaluations score Dims
	// dimensions per candidate (DimsScored == Evals·Dims); the
	// incremental separable path scores only the suffix from the first
	// perturbed dimension, so Evals·Dims − DimsScored is the work the
	// fast path saved. Deterministic for a fixed seed.
	DimsScored int
	// Points holds every evaluated candidate when Params.Record is set.
	Points []Point
}

// runSearch is the engine behind SearchSeparable; p carries defaults
// and has been validated.
func runSearch(p Params, obj *SeparableObjective) Result {
	root := rng.New(p.Seed)
	var (
		evals  int64
		scored int64
		rec    []Point
	)

	// Initial random set (plus any seeded points), best becomes xbest.
	// This phase is serial: evaluations append to rec directly.
	best := make([]int, p.Dims)
	bestVal := math.Inf(-1)
	acc := make([]float64, obj.K) // serial-phase scratch
	consider := func(x []int, v float64) {
		if v > bestVal {
			bestVal = v
			copy(best, x)
		}
	}
	evalSerial := func(x []int) float64 {
		v := obj.eval(acc, x)
		evals++
		scored += int64(p.Dims)
		if p.Record {
			cp := make([]int, len(x))
			copy(cp, x)
			rec = append(rec, Point{X: cp, Val: v})
		}
		return v
	}
	for _, x := range p.Init {
		consider(x, evalSerial(x))
	}
	for i := len(p.Init); i < p.InitialPoints; i++ {
		x := make([]int, p.Dims)
		for d := range x {
			x[d] = root.Intn(p.NumConfigs)
		}
		consider(x, evalSerial(x))
	}

	workers := p.Workers
	workerRNGs := make([]*rng.RNG, workers)
	for w := range workerRNGs {
		workerRNGs[w] = root.Split()
	}

	type localBest struct {
		x     []int
		val   float64
		evals int64
	}
	locals := make([]localBest, workers)
	workerEvals := make([]*sepWorker, workers)
	cands := make([][]int, workers)
	for w := range locals {
		locals[w] = localBest{x: make([]int, p.Dims)}
		workerEvals[w] = newSepWorker(obj, p.Dims)
		cands[w] = make([]int, p.Dims)
	}

	// runWorkerIter runs worker w's candidate batch for one iteration.
	// It reads only the shared best (fixed for the whole iteration) and
	// worker w's RNG stream, and it writes only worker w's slots of
	// locals, workerEvals and cands, and appends to rec.
	runWorkerIter := func(w, iter int) {
		r := workerRNGs[w]
		// Worker groups use different perturbation scales.
		rw := radii[w*len(radii)/workers]
		lb := &locals[w]
		we := workerEvals[w]
		cand := cands[w]
		// Inclusion probability shrinks with iteration (Alg. 2 line 10).
		prob := 1 - math.Log(float64(iter))/math.Log(float64(p.MaxIter))
		if p.MaxIter == 1 {
			prob = 1
		}
		// The inclusion test compares the raw 53-bit draw against
		// prob·2⁵³ instead of dividing every draw down to [0,1):
		// both sides scale by an exact power of two, so the comparison
		// is bit-for-bit the Float64() < prob of the reference engine,
		// minus one division per dimension per candidate.
		probScaled := prob * (1 << 53)
		copy(lb.x, best)
		lb.val = bestVal
		we.rebase(lb.x)
		for pt := 0; pt < pointsPerIter; pt++ {
			copy(cand, lb.x)
			// dmin tracks the first dimension that actually changed, so
			// incremental evaluators reuse the parent prefix below it.
			dmin := p.Dims
			perturbed := false
			for d := 0; d < p.Dims; d++ {
				if float64(r.Uint64()>>11) < probScaled {
					cand[d] = perturb(r, lb.x[d], rw, p.NumConfigs)
					perturbed = true
					if cand[d] != lb.x[d] && d < dmin {
						dmin = d
					}
				}
			}
			if !perturbed {
				// Alg. 2 perturbs at least one dimension.
				d := r.Intn(p.Dims)
				cand[d] = perturb(r, lb.x[d], rw, p.NumConfigs)
				if cand[d] != lb.x[d] && d < dmin {
					dmin = d
				}
			}
			v := we.eval(cand, dmin)
			lb.evals++
			if p.Record {
				cp := make([]int, len(cand))
				copy(cp, cand)
				rec = append(rec, Point{X: cp, Val: v})
			}
			if v > lb.val {
				lb.val = v
				copy(lb.x, cand)
				we.rebase(lb.x)
			}
		}
	}

	// The worker batches run on the caller, one after another: an
	// iteration holds too little work (tens of microseconds) to pay for
	// a fan-out. Each batch still reads only the best fixed at the
	// iteration's start, so the result is Alg. 2's, and Points is
	// ordered by (iteration, worker, point).
	for iter := 1; iter <= p.MaxIter; iter++ {
		for w := 0; w < workers; w++ {
			runWorkerIter(w, iter)
		}
		// barrier reached (Alg. 2 line 18)

		// Worker 0's role: aggregate per-worker bests (Alg. 2 lines 19-20).
		for w := 0; w < workers; w++ {
			if locals[w].val > bestVal {
				bestVal = locals[w].val
				copy(best, locals[w].x)
			}
		}
	}

	for w := range locals {
		evals += locals[w].evals
	}
	for _, we := range workerEvals {
		scored += we.scored()
	}
	return Result{Best: best, BestVal: bestVal, Evals: int(evals), DimsScored: int(scored), Points: rec}
}

// maxReflect bounds the reflection loop: a sane perturbation needs a
// handful of reflections (|v| ≤ rw·n·8.6σ shrinks by 2(n−1) per round
// trip), so hitting the bound means the scale was pathological and the
// draw clamps to the violated bound instead of walking back.
const maxReflect = 1000

// perturb draws x + r·n·N(0,1) and reflects out-of-range values about
// the violated bound (Alg. 2 lines 13-15). Exactly one Norm variate is
// consumed on every path, so guard clamps never shift the RNG stream.
//
//hot:path per-candidate perturbation — no logs, no allocation
func perturb(r *rng.RNG, x int, rw float64, n int) int {
	if n == 1 {
		return 0
	}
	v := float64(x) + rw*float64(n)*r.Norm()
	// A non-finite draw (an overflowing rw·n scale) would spin the
	// reflection loop forever: reflecting ±Inf yields ∓Inf, and NaN
	// compares false with every bound. Clamp instead of reflecting.
	switch {
	case math.IsNaN(v):
		v = float64(x)
	case math.IsInf(v, 1):
		v = float64(n - 1)
	case math.IsInf(v, -1):
		v = 0
	}
	for i := 0; v < 0 || v >= float64(n); i++ {
		if i >= maxReflect {
			// Finite but absurd magnitude: clamp to the violated bound.
			if v < 0 {
				v = 0
			} else {
				v = float64(n - 1)
			}
			break
		}
		if v < 0 {
			v = -v
		}
		if v >= float64(n) {
			v = 2*float64(n-1) - v
		}
	}
	nv := int(math.Round(v))
	if nv < 0 {
		nv = 0
	}
	if nv >= n {
		nv = n - 1
	}
	return nv
}
