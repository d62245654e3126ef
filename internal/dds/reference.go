package dds

import (
	"math"
	"sync"

	"cuttlesys/internal/par"
	"cuttlesys/internal/rng"
)

// SearchReference is the pre-fast-path search engine, preserved as the
// reference implementation: a mutex-serialised eval closure (the
// bookkeeping lock every worker contends on), one goroutine per worker
// each iteration (par.For without the width cap), and full
// from-scratch objective evaluation for every candidate.
// Cross-implementation equivalence tests pin SearchSeparable to it —
// Best, BestVal and Evals must be bit-identical — and
// BenchmarkDecideLoop measures the fast path against it, so the
// speedup numbers are against the real pre-change code, not a
// strawman.
//
// Known wart, kept deliberately: with Record && Workers > 1 the
// mutex-append order of Result.Points depends on goroutine
// interleaving, so Points is NOT deterministic here (the fixed engine
// merges per-worker buffers in worker-index order instead). Compare
// Best/BestVal/Evals, not Points, when Record is set.
func SearchReference(obj Objective, params Params) Result {
	p := params.withDefaults()
	p.validate()

	root := rng.New(p.Seed)
	var (
		mu    sync.Mutex
		rec   []Point
		evals int
	)
	eval := func(x []int) float64 {
		v := obj(x)
		mu.Lock()
		evals++
		if p.Record {
			cp := make([]int, len(x))
			copy(cp, x)
			rec = append(rec, Point{X: cp, Val: v})
		}
		mu.Unlock()
		return v
	}

	// Initial random set (plus any seeded points), best becomes xbest.
	best := make([]int, p.Dims)
	bestVal := math.Inf(-1)
	consider := func(x []int, v float64) {
		if v > bestVal {
			bestVal = v
			copy(best, x)
		}
	}
	for _, x := range p.Init {
		consider(x, eval(x))
	}
	for i := len(p.Init); i < p.InitialPoints; i++ {
		x := make([]int, p.Dims)
		for d := range x {
			x[d] = root.Intn(p.NumConfigs)
		}
		consider(x, eval(x))
	}

	workers := p.Workers
	workerRNGs := make([]*rng.RNG, workers)
	for w := range workerRNGs {
		workerRNGs[w] = root.Split()
	}

	type localBest struct {
		x   []int
		val float64
	}
	locals := make([]localBest, workers)
	for w := range locals {
		locals[w] = localBest{x: make([]int, p.Dims)}
	}

	for iter := 1; iter <= p.MaxIter; iter++ {
		// Inclusion probability shrinks with iteration (Alg. 2 line 10).
		prob := 1 - math.Log(float64(iter))/math.Log(float64(p.MaxIter))
		if p.MaxIter == 1 {
			prob = 1
		}

		par.For(workers, 0, func(_, w int) {
			r := workerRNGs[w]
			// Worker groups use different perturbation scales.
			rw := radii[w*len(radii)/workers]
			lb := &locals[w]
			copy(lb.x, best)
			lb.val = bestVal
			cand := make([]int, p.Dims)
			for pt := 0; pt < pointsPerIter; pt++ {
				copy(cand, lb.x)
				perturbed := false
				for d := 0; d < p.Dims; d++ {
					if r.Float64() < prob {
						cand[d] = perturb(r, lb.x[d], rw, p.NumConfigs)
						perturbed = true
					}
				}
				if !perturbed {
					// Alg. 2 perturbs at least one dimension.
					d := r.Intn(p.Dims)
					cand[d] = perturb(r, lb.x[d], rw, p.NumConfigs)
				}
				if v := eval(cand); v > lb.val {
					lb.val = v
					copy(lb.x, cand)
				}
			}
		}) // barrier (Alg. 2 line 18)

		// Worker 0's role: aggregate per-worker bests (Alg. 2 lines 19-20).
		for w := 0; w < workers; w++ {
			if locals[w].val > bestVal {
				bestVal = locals[w].val
				copy(best, locals[w].x)
			}
		}
	}

	return Result{Best: best, BestVal: bestVal, Evals: evals, DimsScored: evals * p.Dims, Points: rec}
}
