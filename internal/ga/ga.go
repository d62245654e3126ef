// Package ga implements the genetic algorithm that Flicker [18] uses
// for design-space exploration, reproduced here as the comparison
// searcher of §VIII-E (Figs. 9 and 10). Candidates are integer vectors
// over the same configuration domain as DDS; the algorithm runs
// tournament selection, uniform crossover, per-gene mutation and
// elitism over a fixed number of generations.
package ga

import (
	"math"

	"cuttlesys/internal/rng"
)

// Objective scores a candidate; higher is better.
type Objective func(x []int) float64

// The search's fixed settings: an evaluation budget (50 + 40·48 =
// 1 970 evaluations) comparable to the paper's DDS settings, so the
// two searchers compare at equal cost. Each child mutates each gene
// with probability 2/Dims, two mutations expected.
const (
	population    = 50  // individuals per generation
	generations   = 40  // generations evolved after the initial one
	tournamentK   = 3   // tournament size
	crossoverRate = 0.9 // probability a child is a crossover, not a clone
	elite         = 2   // fittest individuals copied unchanged
)

// Params configures a run.
type Params struct {
	// Dims is the number of decision variables.
	Dims int
	// NumConfigs is the per-dimension domain size.
	NumConfigs int
	// Seed drives all randomness.
	Seed uint64
	// Record retains every evaluated point — for Fig. 10a.
	Record bool
	// Init optionally seeds individuals into the initial population.
	Init [][]int
}

// Point is one evaluated candidate.
type Point struct {
	X   []int
	Val float64
}

// Result is the outcome of a run.
type Result struct {
	Best    []int
	BestVal float64
	Evals   int
	Points  []Point
}

type individual struct {
	genes []int
	fit   float64
}

// Search evolves the population and returns the best individual found.
// It panics on invalid parameters.
func Search(obj Objective, p Params) Result {
	if p.Dims <= 0 || p.NumConfigs <= 0 {
		panic("ga: Dims and NumConfigs must be positive")
	}
	for _, x := range p.Init {
		if len(x) != p.Dims {
			panic("ga: Init individual with wrong dimensionality")
		}
	}
	mutationRate := 2 / math.Max(1, float64(p.Dims))

	r := rng.New(p.Seed)
	var (
		rec   []Point
		evals int
	)
	evaluate := func(pop []individual) {
		for i := range pop {
			pop[i].fit = obj(pop[i].genes)
			evals++
			if p.Record {
				cp := make([]int, p.Dims)
				copy(cp, pop[i].genes)
				rec = append(rec, Point{X: cp, Val: pop[i].fit})
			}
		}
	}

	// Initial population: seeded individuals then random fill.
	pop := make([]individual, population)
	for i := range pop {
		genes := make([]int, p.Dims)
		if i < len(p.Init) {
			copy(genes, p.Init[i])
		} else {
			for d := range genes {
				genes[d] = r.Intn(p.NumConfigs)
			}
		}
		pop[i] = individual{genes: genes}
	}
	evaluate(pop)

	best := individual{genes: make([]int, p.Dims), fit: math.Inf(-1)}
	updateBest := func(pop []individual) {
		for i := range pop {
			if pop[i].fit > best.fit {
				best.fit = pop[i].fit
				copy(best.genes, pop[i].genes)
			}
		}
	}
	updateBest(pop)

	tournament := func(pop []individual) *individual {
		winner := &pop[r.Intn(len(pop))]
		for k := 1; k < tournamentK; k++ {
			c := &pop[r.Intn(len(pop))]
			if c.fit > winner.fit {
				winner = c
			}
		}
		return winner
	}

	for gen := 0; gen < generations; gen++ {
		next := make([]individual, 0, population)
		// Elitism: keep the current best individuals.
		elites := topK(pop, elite)
		for _, e := range elites {
			genes := make([]int, p.Dims)
			copy(genes, e.genes)
			next = append(next, individual{genes: genes, fit: e.fit})
		}
		for len(next) < population {
			a, b := tournament(pop), tournament(pop)
			child := make([]int, p.Dims)
			if r.Float64() < crossoverRate {
				for d := range child {
					if r.Float64() < 0.5 {
						child[d] = a.genes[d]
					} else {
						child[d] = b.genes[d]
					}
				}
			} else {
				copy(child, a.genes)
			}
			for d := range child {
				if r.Float64() < mutationRate {
					child[d] = r.Intn(p.NumConfigs)
				}
			}
			next = append(next, individual{genes: child})
		}
		// Elites carry their fitness; only evaluate the offspring.
		evaluate(next[len(elites):])
		pop = next
		updateBest(pop)
	}

	return Result{Best: best.genes, BestVal: best.fit, Evals: evals, Points: rec}
}

// topK returns the k fittest individuals (k small; selection sort).
func topK(pop []individual, k int) []individual {
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	if k > len(pop) {
		k = len(pop)
	}
	out := make([]individual, 0, k)
	for n := 0; n < k; n++ {
		bi := n
		for i := n; i < len(idx); i++ {
			if pop[idx[i]].fit > pop[idx[bi]].fit {
				bi = i
			}
		}
		idx[n], idx[bi] = idx[bi], idx[n]
		out = append(out, pop[idx[n]])
	}
	return out
}
