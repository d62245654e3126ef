package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"testing"

	"cuttlesys/internal/rng"
)

// percentileBySort is the oracle: the full sort Percentile used to do,
// read by the interpolation it still shares with Box.
func percentileBySort(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, clampP(p))
}

// percentileInputs are the shapes the selection has to get right:
// the simulator's own distributions, heavy ties, presorted runs, the
// fault plane's dropped-to-zero samples and a zero-throughput +Inf.
var percentileInputs = []struct {
	name string
	fill func(r *rng.RNG, xs []float64)
}{
	{"lognormal", func(r *rng.RNG, xs []float64) {
		for i := range xs {
			xs[i] = 1e-3 * r.LogNormal(-0.5, 1)
		}
	}},
	{"exponential", func(r *rng.RNG, xs []float64) {
		for i := range xs {
			xs[i] = r.Exp(250)
		}
	}},
	{"five-distinct", func(r *rng.RNG, xs []float64) {
		for i := range xs {
			xs[i] = float64(1 + r.Intn(5))
		}
	}},
	{"all-equal", func(_ *rng.RNG, xs []float64) {
		for i := range xs {
			xs[i] = 0.004
		}
	}},
	{"sorted", func(r *rng.RNG, xs []float64) {
		for i := range xs {
			xs[i] = r.Float64()
		}
		sort.Float64s(xs)
	}},
	{"reversed", func(r *rng.RNG, xs []float64) {
		for i := range xs {
			xs[i] = r.Float64()
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
	}},
	{"30pct-zeros", func(r *rng.RNG, xs []float64) {
		for i := range xs {
			if xs[i] = r.Exp(100); r.Float64() < 0.3 {
				xs[i] = 0
			}
		}
	}},
	{"one-inf", func(r *rng.RNG, xs []float64) {
		for i := range xs {
			xs[i] = r.Exp(100)
		}
		xs[r.Intn(len(xs))] = math.Inf(1)
	}},
}

func TestPercentileMatchesSort(t *testing.T) {
	r := rng.New(23)
	for _, in := range percentileInputs {
		for _, n := range []int{1, 2, 3, 17, 400, 6000} {
			xs := make([]float64, n)
			in.fill(r, xs)
			orig := append([]float64(nil), xs...)
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, p := range []float64{0, 0.05, 0.5, 0.95, 0.99, 1, r.Float64()} {
				want := math.Float64bits(percentileBySort(xs, p))
				if got := math.Float64bits(Percentile(xs, p)); got != want {
					t.Errorf("%s n=%d p=%v: Percentile = %x, sort = %x", in.name, n, p, got, want)
				}
				for i := range xs {
					if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
						t.Fatalf("%s n=%d p=%v: Percentile mutated its input at %d", in.name, n, p, i)
					}
				}
				own := append([]float64(nil), xs...)
				if got := math.Float64bits(PercentileInPlace(own, p)); got != want {
					t.Errorf("%s n=%d p=%v: PercentileInPlace = %x, sort = %x", in.name, n, p, got, want)
				}
				sort.Float64s(own)
				for i := range own {
					if math.Float64bits(own[i]) != math.Float64bits(sorted[i]) {
						t.Fatalf("%s n=%d p=%v: PercentileInPlace changed the multiset", in.name, n, p)
					}
				}
			}
		}
	}
}

// median3Killer builds the input that makes every median-of-three
// round peel off two elements: the round's two smallest values sit at
// the left end and the middle, so the pivot is the second smallest of
// the range. It replays selectKth's own moves (the pivot swaps with
// the element right of the left end, then the range drops both) to
// know where the next round will look.
func median3Killer(n int) []float64 {
	xs := make([]float64, n)
	at := make([]int, n) // at[pos]: original index of the element now at pos
	for i := range at {
		at[i] = i
	}
	v := 1.0
	l, r := 0, n-1
	for ; r-l >= 12; l += 2 {
		mid := l + (r-l)/2
		xs[at[l]], xs[at[mid]] = v, v+1
		v += 2
		at[l+1], at[mid] = at[mid], at[l+1]
	}
	for ; l <= r; l++ {
		xs[at[l]] = v
		v++
	}
	return xs
}

func TestSelectDepthBoundFallsBackToSort(t *testing.T) {
	const n = 6000
	xs := median3Killer(n)
	k := n - 1 - n/100
	depth := 2 * bits.Len(uint(n))
	if !selectKth(append([]float64(nil), xs...), k, depth) {
		t.Fatal("median-of-three killer did not trip the depth bound")
	}
	// Without the bound the same input takes a round per two elements.
	if selectKth(append([]float64(nil), xs...), k, n) {
		t.Fatal("killer finished by sorting although it was given n rounds")
	}
	for _, p := range []float64{0.5, 0.99, 1} {
		want := math.Float64bits(percentileBySort(xs, p))
		if got := math.Float64bits(Percentile(xs, p)); got != want {
			t.Errorf("killer p=%v: Percentile = %x, sort = %x", p, got, want)
		}
	}
	// A random input stays far inside the bound.
	r := rng.New(5)
	for i := range xs {
		xs[i] = r.Exp(100)
	}
	if selectKth(xs, k, depth) {
		t.Fatal("random input tripped the depth bound")
	}
}

func TestPercentileNonFinite(t *testing.T) {
	for _, f := range []func([]float64, float64) float64{Percentile, PercentileInPlace} {
		// A NaN sample has no rank: sorted to the front it used to
		// vanish from the tail and read 2.97 here.
		if got := f([]float64{1, math.NaN(), 3, 2}, 0.99); !math.IsNaN(got) {
			t.Errorf("p99 with a NaN sample = %v, want NaN", got)
		}
		if got := f([]float64{math.NaN()}, 0.5); !math.IsNaN(got) {
			t.Errorf("median of {NaN} = %v, want NaN", got)
		}
		if got := f(nil, math.NaN()); got != 0 {
			t.Errorf("empty input = %v, want 0", got)
		}
		// +Inf is an ordinary, largest sample.
		if got := f([]float64{1, math.Inf(1), 3, 2}, 1); !math.IsInf(got, 1) {
			t.Errorf("max with +Inf = %v, want +Inf", got)
		}
		if got := f([]float64{1, math.Inf(1), 3, 2}, 0.5); got != 2.5 {
			t.Errorf("median with +Inf = %v, want 2.5", got)
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != "stats: Percentile with NaN p" {
					t.Errorf("NaN p: recovered %q, want the package's explicit panic", msg)
				}
			}()
			f([]float64{1, 2, 3}, math.NaN())
		}()
	}
}

// TestPercentileConcurrent is the shape of the LCSurfaces fan-out and
// the fleet's machine workers: several goroutines read one shared input
// through Percentile while each runs PercentileInPlace on a buffer of
// its own. Under -race it shows the package keeps no scratch state.
func TestPercentileConcurrent(t *testing.T) {
	r := rng.New(8)
	shared := make([]float64, 3000)
	for i := range shared {
		shared[i] = r.Exp(100)
	}
	want := math.Float64bits(percentileBySort(shared, 0.99))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := append([]float64(nil), shared...)
			for rep := 0; rep < 20; rep++ {
				if got := math.Float64bits(Percentile(shared, 0.99)); got != want {
					t.Errorf("concurrent Percentile = %x, want %x", got, want)
				}
				if got := math.Float64bits(PercentileInPlace(own, 0.99)); got != want {
					t.Errorf("concurrent PercentileInPlace = %x, want %x", got, want)
				}
			}
		}()
	}
	wg.Wait()
}

var benchSink float64

func BenchmarkP99(b *testing.B) {
	r := rng.New(1)
	xs := make([]float64, 6000)
	for i := range xs {
		xs[i] = 1e-3 * r.LogNormal(-0.5, 1)
	}
	for _, impl := range []struct {
		name string
		f    func([]float64, float64) float64
	}{
		{"select", Percentile},
		{"sort", percentileBySort},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", impl.name, len(xs)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = impl.f(xs, 0.99)
			}
		})
	}
}
