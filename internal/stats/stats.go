// Package stats provides the summary statistics used across the
// evaluation harness: percentiles (tail latency), geometric means (the
// paper's batch-throughput objective, Eq. 1), box-plot five-number
// summaries (Figs. 5 and 9), and relative-error metrics for the
// reconstruction accuracy studies.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
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
// is not modified: one pass with a bounded heap of the r = n−⌊rank⌋
// largest samples (sweep) costs O(n + r log r) comparisons on input in
// no particular order, O(n log r) at worst, and the heap is on the
// stack up to r = 64 (a p99 of 6 300 samples). The result is
// bit-identical to sorting xs and interpolating, reading −0 as +0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	o := plan(len(xs), clampP(p))
	var stack [64]float64
	h := append(stack[:0], xs[len(xs)-o.m:]...)
	return o.read(h, xs[:len(xs)-o.m], false)
}

// PercentileInPlace is Percentile for a caller that owns xs and does
// not need its order afterwards: the heap lives in xs's own tail, so it
// allocates nothing, and xs is left permuted (the same multiset). Empty
// input, NaN samples and NaN p are handled as in Percentile. It keeps
// no state between calls, so concurrent calls on distinct slices are
// safe.
//
//hot:path every tail-latency reading: StepSlice, LCSurfaces
func PercentileInPlace(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	o := plan(len(xs), clampP(p))
	return o.read(xs[len(xs)-o.m:], xs[:len(xs)-o.m], true)
}

func clampP(p float64) float64 {
	if p != p {
		panic("stats: Percentile with NaN p")
	}
	return math.Max(0, math.Min(1, p))
}

// order plans one percentile read of n samples, which needs the lo-th
// and hi-th smallest (0-based, hi ≤ lo+1). The m = n−lo largest hold
// both.
type order struct {
	rank      float64
	lo, hi, m int
}

func plan(n int, p float64) (o order) {
	o.rank = p * float64(n-1)
	o.lo, o.hi = int(math.Floor(o.rank)), int(math.Ceil(o.rank))
	o.m = n - o.lo
	return o
}

// read sweeps h past rest and interpolates the root and the smaller
// of its children.
func (o order) read(h, rest []float64, writeBack bool) float64 {
	nan := sweep(h, rest, writeBack)
	lo, hi := h[0], h[0]
	if o.hi != o.lo {
		hi = h[1]
		if len(h) > 2 && h[2] < hi {
			hi = h[2]
		}
	}
	if nan {
		return math.NaN()
	}
	return o.interpolate(lo, hi)
}

// sweep heapifies h, the m samples from the input's tail, and passes
// each sample of rest by the root with one compare: a larger one takes
// the root's place, and with writeBack the displaced root takes its
// slot, keeping the input's multiset. A growing backlog seeds its
// largest samples and replaces nothing. A NaN fails the compare; the
// rarely taken branch reports it.
func sweep(h, rest []float64, writeBack bool) (nan bool) {
	for _, x := range h {
		nan = nan || x != x
	}
	if nan {
		return true
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, h[i])
	}
	root := h[0]
	for i, x := range rest {
		if x <= root {
			continue
		}
		if x != x {
			return true
		}
		if writeBack {
			rest[i] = root
		}
		siftDown(h, 0, x)
		root = h[0]
	}
	return false
}

// siftDown places x at slot i of the min-heap h and restores order
// below it.
func siftDown(h []float64, i int, x float64) {
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if !(h[c] < x) {
			break
		}
		h[i] = h[c]
	}
	h[i] = x
}

// interpolate blends the lo-th and hi-th order statistics. The heap
// cannot tell −0 from +0, so adding +0 reads either as +0.
func (o order) interpolate(lo, hi float64) float64 {
	lo, hi = lo+0, hi+0
	if o.lo == o.hi {
		return lo
	}
	frac := o.rank - float64(o.lo)
	return lo*(1-frac) + hi*frac
}

// percentileSorted interpolates the p-quantile of an ascending slice:
// Box's reader.
func percentileSorted(sorted []float64, p float64) float64 {
	o := plan(len(sorted), p)
	return o.interpolate(sorted[o.lo], sorted[o.hi])
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

// Box computes a BoxStats over xs. Any NaN sample makes every order
// statistic NaN (N still counts the samples), as in Percentile.
func Box(xs []float64) BoxStats {
	if len(xs) == 0 {
		return BoxStats{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if sorted[0] != sorted[0] { // sort.Float64s orders NaN first
		sorted = sorted[:1]
	}
	return BoxStats{
		P5:     percentileSorted(sorted, 0.05),
		P25:    percentileSorted(sorted, 0.25),
		Median: percentileSorted(sorted, 0.50),
		P75:    percentileSorted(sorted, 0.75),
		P95:    percentileSorted(sorted, 0.95),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		N:      len(xs),
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
