// Package ucp implements Utility-based Cache Partitioning (Qureshi &
// Patt [80]) — the way-partitioning scheme the paper's core-gating
// baseline uses ("core-gating with LLC way-partitioning", §VII-B),
// since the technique is available on real cloud servers.
//
// Each application contributes a utility curve — the LLC misses it
// avoids per unit time as a function of allocated ways — and the
// lookahead algorithm greedily assigns ways to whichever application
// offers the highest marginal utility per way, considering multi-way
// steps so that curves with plateaus followed by cliffs (streaming
// working sets) are handled correctly.
package ucp

import "slices"

// Curve is one application's demand on the cache.
type Curve struct {
	// MissRatio returns the LLC miss ratio at the given ways.
	MissRatio func(ways float64) float64
	// Weight converts miss-ratio reduction into utility — accesses per
	// unit time (an app that rarely touches the LLC gains little from
	// ways regardless of its curve shape).
	Weight float64
}

// Partition assigns totalWays integer ways among the applications,
// giving each at least minWays, maximising total utility with the UCP
// lookahead algorithm, and returns the allocation in dst's storage
// (grown if its capacity is short of len(curves); dst's contents are
// ignored). It panics when the budget cannot cover the minimum
// allocations. The returned slice sums to exactly totalWays (leftover
// ways with zero marginal utility are distributed round-robin,
// matching hardware that cannot leave ways unpowered to no one).
func Partition(dst []int, curves []Curve, totalWays, minWays int) []int {
	n := len(curves)
	if n == 0 {
		return dst[:0]
	}
	if minWays < 0 {
		minWays = 0
	}
	if n*minWays > totalWays {
		panic("ucp: budget below minimum allocations")
	}
	alloc := slices.Grow(dst[:0], n)[:n]
	for i := range alloc {
		alloc[i] = minWays
	}
	balance := totalWays - n*minWays

	// An allocation only ever takes the integer values minWays …
	// minWays+balance, so each curve is evaluated once per value up
	// front and the lookahead reads the table: miss[i*stride+d] is
	// curve i's miss ratio at minWays+d ways. The paper's machine (16
	// jobs, 32 ways) fits the stack buffer; only a larger problem
	// allocates.
	stride := balance + 1
	var stack [512]float64
	miss := stack[:]
	if n*stride > len(stack) {
		miss = make([]float64, n*stride)
	}
	for i := range curves {
		for d := 0; d < stride; d++ {
			miss[i*stride+d] = curves[i].MissRatio(float64(minWays + d))
		}
	}

	for balance > 0 {
		bestApp, bestSteps := -1, 0
		bestMU := 0.0
		for i := range curves {
			// Lookahead: the step size maximising utility per way.
			at := miss[i*stride+alloc[i]-minWays:]
			for k := 1; k <= balance; k++ {
				mu := curves[i].Weight * (at[0] - at[k]) / float64(k)
				if mu > bestMU {
					bestMU, bestApp, bestSteps = mu, i, k
				}
			}
		}
		if bestApp < 0 {
			break // no one benefits; distribute the rest below
		}
		alloc[bestApp] += bestSteps
		balance -= bestSteps
	}
	// Hand out zero-utility leftovers round-robin.
	for i := 0; balance > 0; i = (i + 1) % n {
		alloc[i]++
		balance--
	}
	return alloc
}
