// Package stats provides the summary statistics used across the
// evaluation harness: percentiles (tail latency), geometric means (the
// paper's batch-throughput objective, Eq. 1), box-plot five-number
// summaries (Figs. 5 and 9), and relative-error metrics for the
// reconstruction accuracy studies.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. Non-positive inputs would
// make the geometric mean undefined; they are clamped to a tiny positive
// value so that a single zero-throughput application drives the
// objective toward zero rather than producing NaN (the behaviour the
// scheduler wants: killing one batch job is heavily penalised).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	const tiny = 1e-12
	sum := 0.0
	for _, x := range xs {
		if x < tiny {
			x = tiny
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Percentile returns the p-quantile (p in [0,1], clamped) of xs using
// linear interpolation between closest ranks. It returns 0 for an
// empty slice and NaN when any sample is NaN: a NaN has no rank, and
// the tail of garbage telemetry must read as garbage rather than as
// the tail of whatever else arrived. It panics on a NaN p. The input
// is not modified: Percentile is one copy (which also finds any NaN)
// plus the selection PercentileInPlace runs, so it costs one allocation
// and expected O(n) comparisons, O(n log n) at worst. The result is
// bit-identical to sorting xs and interpolating.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	p = clampP(p)
	buf := make([]float64, len(xs))
	nan := false
	for i, x := range xs {
		buf[i] = x
		nan = nan || x != x
	}
	if nan {
		return math.NaN()
	}
	return percentileSelect(buf, p)
}

// PercentileInPlace is Percentile for a caller that owns xs and does
// not need its order afterwards: it allocates nothing and leaves xs
// permuted (the same multiset, partially ordered around the selected
// rank). Empty input, NaN samples and NaN p are handled as in
// Percentile. It keeps no state between calls, so concurrent calls on
// distinct slices are safe.
func PercentileInPlace(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	p = clampP(p)
	for _, x := range xs {
		if x != x {
			return math.NaN()
		}
	}
	return percentileSelect(xs, p)
}

func clampP(p float64) float64 {
	if p != p {
		panic("stats: Percentile with NaN p")
	}
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// percentileSelect reads the two order statistics the interpolation
// needs without ordering the rest: selection places the ⌈rank⌉-th
// smallest at its index with nothing larger before it, so the
// ⌊rank⌋-th, when distinct, is the maximum of what precedes it. The
// interpolation expression is percentileSorted's, operand for operand.
// xs is NaN-free and non-empty; it is permuted.
func percentileSelect(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	rank := p * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	selectKth(xs, hi, 2*bits.Len(uint(n)))
	if lo == hi {
		return xs[hi]
	}
	below := xs[0]
	for _, x := range xs[1:hi] {
		if x > below {
			below = x
		}
	}
	frac := rank - float64(lo)
	return below*(1-frac) + xs[hi]*frac
}

// selectKth permutes xs so that xs[k] is its k-th smallest element
// (0-based), nothing before index k is larger and nothing after it is
// smaller. It is a deterministic quickselect — median-of-three pivot,
// Hoare partition, no randomness — that narrows one side per round.
// After depth rounds without finishing (an adversarial input; random
// data needs about a third of the 2·log2(n) its caller grants) it sorts
// the range still in play, which bounds the worst case at O(n log n),
// and reports true. xs must be NaN-free.
//
//hot:path every tail-latency reading: StepSlice, controller feedback, LCSurfaces
func selectKth(xs []float64, k, depth int) (sorted bool) {
	l, r := 0, len(xs)-1
	for r-l >= 12 {
		if depth == 0 {
			sort.Float64s(xs[l : r+1])
			return true
		}
		depth--
		pivot := median3(xs[l], xs[l+(r-l)/2], xs[r])
		// The pivot is an element of xs[l..r], so both scans stop
		// inside the range on the first pass, and on later passes at
		// the pair the previous pass swapped.
		i, j := l, r
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[l..j] ≤ pivot ≤ xs[i..r]; anything between j and i equals
		// the pivot and is already in place.
		switch {
		case k <= j:
			r = j
		case k >= i:
			l = i
		default:
			return false
		}
	}
	// Insertion sort finishes a short range.
	for i := l + 1; i <= r; i++ {
		for j := i; j > l && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return false
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
		if a > b {
			b = a
		}
	}
	return b
}

// percentileSorted interpolates the p-quantile of an ascending slice —
// Box's reader, and the expression percentileSelect reproduces.
func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	rank := p * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// P99 returns the 99th percentile of xs — the paper's tail-latency
// metric.
func P99(xs []float64) float64 { return Percentile(xs, 0.99) }

// BoxStats is the five-number summary (plus whisker percentiles) used to
// report reconstruction error distributions, mirroring the box plots of
// Figs. 5 and 9.
type BoxStats struct {
	P5, P25, Median, P75, P95 float64
	Min, Max                  float64
	N                         int
}

// Box computes a BoxStats over xs.
func Box(xs []float64) BoxStats {
	if len(xs) == 0 {
		return BoxStats{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return BoxStats{
		P5:     percentileSorted(sorted, 0.05),
		P25:    percentileSorted(sorted, 0.25),
		Median: percentileSorted(sorted, 0.50),
		P75:    percentileSorted(sorted, 0.75),
		P95:    percentileSorted(sorted, 0.95),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		N:      len(sorted),
	}
}

// String renders the summary in a compact one-line form for experiment
// tables.
func (b BoxStats) String() string {
	return fmt.Sprintf("n=%d min=%.2f p5=%.2f p25=%.2f med=%.2f p75=%.2f p95=%.2f max=%.2f",
		b.N, b.Min, b.P5, b.P25, b.Median, b.P75, b.P95, b.Max)
}

// RelErrPct returns the signed relative error of predicted vs actual as
// a percentage: 100·(pred−actual)/actual. When actual is (near) zero the
// error is reported against a small floor to avoid infinities; the
// accuracy experiments filter such entries.
func RelErrPct(pred, actual float64) float64 {
	denom := math.Abs(actual)
	if denom < 1e-12 {
		denom = 1e-12
	}
	return 100 * (pred - actual) / denom
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
