package rng

import (
	"math"
	"sort"
	"testing"
)

// nDraws is the sample size of the distributional tests.
const nDraws = 1_000_000

func draws(f func() float64) []float64 {
	xs := make([]float64, nDraws)
	for i := range xs {
		xs[i] = f()
	}
	return xs
}

func expCDF(x float64) float64 { return -math.Expm1(-x) }

func normCDF(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

// ksStatistic returns the Kolmogorov–Smirnov distance between the
// empirical distribution of xs (sorted in place) and cdf.
func ksStatistic(xs []float64, cdf func(float64) float64) float64 {
	sort.Float64s(xs)
	n := float64(len(xs))
	d := 0.0
	for i, x := range xs {
		f := cdf(x)
		d = math.Max(d, math.Max(f-float64(i)/n, float64(i+1)/n-f))
	}
	return d
}

// ksCritical is the asymptotic two-sided KS critical value at
// significance 0.001.
var ksCritical = 1.949 / math.Sqrt(nDraws)

func TestExpKolmogorovSmirnov(t *testing.T) {
	r := New(101)
	if d := ksStatistic(draws(func() float64 { return r.Exp(1) }), expCDF); d > ksCritical {
		t.Fatalf("Exp(1): KS distance %.5f against 1−e^−x exceeds %.5f", d, ksCritical)
	}
	// The rate only scales the unit variate.
	r = New(102)
	const rate = 250.0
	scaled := func(x float64) float64 { return expCDF(rate * x) }
	if d := ksStatistic(draws(func() float64 { return r.Exp(rate) }), scaled); d > ksCritical {
		t.Fatalf("Exp(%v): KS distance %.5f exceeds %.5f", rate, d, ksCritical)
	}
}

func TestNormKolmogorovSmirnov(t *testing.T) {
	r := New(103)
	if d := ksStatistic(draws(r.Norm), normCDF); d > ksCritical {
		t.Fatalf("Norm: KS distance %.5f against Φ exceeds %.5f", d, ksCritical)
	}
}

// TestBaseStripKolmogorovSmirnov tests the two tail samplers directly:
// inside Exp and Norm they run once in about 2 000 draws, too rarely
// for the whole-distribution tests to see their shape.
func TestBaseStripKolmogorovSmirnov(t *testing.T) {
	r := New(109)
	if d := ksStatistic(draws(r.expInversion), expCDF); d > ksCritical {
		t.Errorf("expInversion: KS distance %.5f against 1−e^−x exceeds %.5f", d, ksCritical)
	}
	// P(X − rn ≤ x | X > rn) = 1 − Q(rn + x)/Q(rn).
	tail := func(x float64) float64 { return 1 - math.Erfc((rn+x)/math.Sqrt2)/math.Erfc(rn/math.Sqrt2) }
	r = New(110)
	if d := ksStatistic(draws(r.normTail), tail); d > ksCritical {
		t.Errorf("normTail: KS distance %.5f against the normal tail beyond %v exceeds %.5f", d, rn, ksCritical)
	}
}

// TestSamplerMoments checks the first four raw moments of each sampler
// against their exact values, to five standard errors (the standard
// error of the k-th sample moment needs the 2k-th moment).
func TestSamplerMoments(t *testing.T) {
	cases := []struct {
		name    string
		seed    uint64
		draw    func(*RNG) float64
		moments [9]float64 // exact E[X^k], k = 0…8
	}{
		// E[X^k] = k! for the unit exponential.
		{"Exp", 104, func(r *RNG) float64 { return r.Exp(1) }, [9]float64{1, 1, 2, 6, 24, 120, 720, 5040, 40320}},
		// E[X^k] = (k−1)!! for even k and 0 for odd k for the standard normal.
		{"Norm", 105, (*RNG).Norm, [9]float64{1, 0, 1, 0, 3, 0, 15, 0, 105}},
	}
	for _, tc := range cases {
		r := New(tc.seed)
		var sum [5]float64
		for i := 0; i < nDraws; i++ {
			x := tc.draw(r)
			p := 1.0
			for k := 1; k <= 4; k++ {
				p *= x
				sum[k] += p
			}
		}
		for k := 1; k <= 4; k++ {
			got := sum[k] / nDraws
			want := tc.moments[k]
			se := math.Sqrt((tc.moments[2*k] - want*want) / nDraws)
			if math.Abs(got-want) > 5*se {
				t.Errorf("%s: E[X^%d] = %.5f, want %v ± %.5f", tc.name, k, got, want, 5*se)
			}
		}
	}
}

// TestSamplerTailMass checks the draws beyond each ziggurat's base
// strip — the only ones that come from the tail algorithms — for their
// probability mass and their mean excess over the strip's edge.
func TestSamplerTailMass(t *testing.T) {
	// Exponential: P(X > re) = e^−re and, memorylessly, the excess is a
	// unit exponential (mean 1, sd 1).
	r := New(106)
	n, excess := 0, 0.0
	for i := 0; i < nDraws; i++ {
		if x := r.Exp(1); x > re {
			n++
			excess += x - re
		}
	}
	checkTail(t, "Exp", n, excess, math.Exp(-re), 1, 1)

	// Normal: P(|X| > rn) = erfc(rn/√2); the excess of |X| over rn
	// has mean φ(rn)/Q(rn) − rn and, for rn this far out, a standard
	// deviation close to 1/rn.
	r = New(107)
	n, excess = 0, 0.0
	for i := 0; i < nDraws; i++ {
		if x := math.Abs(r.Norm()); x > rn {
			n++
			excess += x - rn
		}
	}
	q := math.Erfc(rn/math.Sqrt2) / 2
	phi := math.Exp(-rn*rn/2) / math.Sqrt(2*math.Pi)
	checkTail(t, "Norm", n, excess, 2*q, phi/q-rn, 1/rn)
}

func checkTail(t *testing.T, name string, n int, excess, p, meanExcess, sdExcess float64) {
	t.Helper()
	want := p * nDraws
	if math.Abs(float64(n)-want) > 5*math.Sqrt(want) {
		t.Errorf("%s: %d draws beyond the base strip, want %.0f ± %.0f", name, n, want, 5*math.Sqrt(want))
	}
	if n == 0 {
		return
	}
	if got, tol := excess/float64(n), 5*sdExcess/math.Sqrt(float64(n)); math.Abs(got-meanExcess) > tol {
		t.Errorf("%s: mean excess beyond the strip %.4f, want %.4f ± %.4f", name, got, meanExcess, tol)
	}
}

// TestLogNormalUnitMean checks the service-demand multiplier qsim draws
// per query: LogNormal(−σ²/2, σ) has mean exactly 1, and its standard
// error is √(e^σ² − 1)/√n.
func TestLogNormalUnitMean(t *testing.T) {
	for i, sigma := range []float64{0.3, 0.4, 0.8} {
		r := New(108 + uint64(i))
		mu := -sigma * sigma / 2
		sum := 0.0
		for j := 0; j < nDraws; j++ {
			sum += r.LogNormal(mu, sigma)
		}
		se := math.Sqrt(math.Expm1(sigma*sigma) / nDraws)
		if got := sum / nDraws; math.Abs(got-1) > 5*se {
			t.Errorf("σ=%v: mean %.5f, want 1 ± %.5f", sigma, got, 5*se)
		}
	}
}

func TestExpPanicsOnNonPositiveRate(t *testing.T) {
	for _, rate := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Exp(%v) did not panic", rate)
				}
			}()
			New(1).Exp(rate)
		}()
	}
}

// expInverse is the inverse-CDF sampler Exp used before the ziggurat:
// one math.Log per draw.
func expInverse(r *RNG, rate float64) float64 {
	for {
		if u := r.Float64(); u > 0 {
			return -math.Log(u) / rate
		}
	}
}

// polar is the Marsaglia polar sampler Norm used before the ziggurat:
// one Log and one Sqrt per accepted pair, 21 % of pairs rejected, the
// second variate of each pair cached.
type polar struct {
	r        *RNG
	hasSpare bool
	spare    float64
}

func (p *polar) norm() float64 {
	if p.hasSpare {
		p.hasSpare = false
		return p.spare
	}
	for {
		u := 2*p.r.Float64() - 1
		v := 2*p.r.Float64() - 1
		if s := u*u + v*v; s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			p.spare, p.hasSpare = v*f, true
			return u * f
		}
	}
}

var sink float64

// BenchmarkSamplers prices each variate the queueing substrate draws —
// an inter-arrival time (Exp), a standard normal, and a query's demand
// multiplier (LogNormal at σ = 0.4) — on the ziggurat and on the
// samplers it replaced, and one query's pair of draws (ns/query) in a
// 64-query Arrivals pass and in the Norm and Exp loop it replaced.
func BenchmarkSamplers(b *testing.B) {
	const sigma = 0.4
	mu := -sigma * sigma / 2
	b.Run("Exp/ziggurat", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			sink += r.Exp(1000)
		}
	})
	b.Run("Exp/inverse", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			sink += expInverse(r, 1000)
		}
	})
	b.Run("Norm/ziggurat", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			sink += r.Norm()
		}
	})
	b.Run("Norm/polar", func(b *testing.B) {
		p := &polar{r: New(1)}
		for i := 0; i < b.N; i++ {
			sink += p.norm()
		}
	})
	b.Run("LogNormal/ziggurat", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			sink += r.LogNormal(mu, sigma)
		}
	})
	b.Run("LogNormal/polar", func(b *testing.B) {
		p := &polar{r: New(1)}
		for i := 0; i < b.N; i++ {
			sink += math.Exp(mu + sigma*p.norm())
		}
	})
	var ts, zs [64]float64
	perQuery := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ts)), "ns/query")
	}
	b.Run("Arrivals/chunk", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			r.Arrivals(ts[:], zs[:], 0, math.Inf(1), 1000)
		}
		perQuery(b)
	})
	b.Run("Arrivals/loop", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			arrivalsLoop(r, ts[:], zs[:], 0, math.Inf(1), 1000)
		}
		perQuery(b)
	})
}
