package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"cuttlesys/internal/qsim"
	"cuttlesys/internal/rng"
)

// percentileBySort is the oracle: the full sort Percentile used to do,
// read by the interpolation it shares with Box.
func percentileBySort(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if sorted[0] != sorted[0] {
		return math.NaN()
	}
	return percentileSorted(sorted, clampP(p))
}

// median3Killer builds the input that made every round of the
// median-of-three quickselect Percentile used to run peel off two
// elements: the round's two smallest values sit at the left end and
// the middle, so the pivot was the second smallest of the range. It
// replays that selection's moves (the pivot swapped with the element
// right of the left end, then the range dropped both) to know where
// the next round would look. The heap has no pivot to defeat; the
// input stays as an adversarial order it must still read exactly.
func median3Killer(xs []float64) {
	n := len(xs)
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
}

// saturatedQueue fills xs with the sojourns of a 16-server queue
// offered 1.1 times its capacity: a backlog that grows through every
// window, so the samples rise with noise — the slice a violated QoS
// hands the tail read.
func saturatedQueue(r *rng.RNG, xs []float64) {
	const k, meanSvc = 16, 2e-3
	svc := qsim.NewService(r.Uint64(), k)
	var sj []float64
	for len(sj) < len(xs) {
		sj = svc.AppendStep(sj, 0.1, 1.1*k/meanSvc, meanSvc, 0.55)
	}
	copy(xs, sj)
}

// percentileInputs are the shapes the selection has to get right:
// the simulator's own distributions, heavy ties, presorted runs and
// ramps, bursty and saturated backlogs, the fault plane's
// dropped-to-zero samples, signed zeros and a zero-throughput +Inf.
var percentileInputs = []struct {
	name string
	fill func(r *rng.RNG, xs []float64)
}{
	{"lognormal", func(r *rng.RNG, xs []float64) {
		for i := range xs {
			xs[i] = 1e-3 * math.Exp(-0.5+r.Norm())
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
	{"ascending", func(_ *rng.RNG, xs []float64) {
		for i := range xs {
			xs[i] = 1e-4 * float64(i)
		}
	}},
	{"descending", func(_ *rng.RNG, xs []float64) {
		for i := range xs {
			xs[i] = 1e-4 * float64(len(xs)-i)
		}
	}},
	{"sawtooth-burst", func(r *rng.RNG, xs []float64) {
		// Backlog builds over a burst of arrivals, then drains.
		level := 0.0
		for i := range xs {
			if i%97 < 60 {
				level += r.Exp(1e4)
			} else {
				level = math.Max(0, level-r.Exp(5e3))
			}
			xs[i] = 1e-3 + level
		}
	}},
	{"saturated-queue", saturatedQueue},
	{"median3-killer", func(_ *rng.RNG, xs []float64) { median3Killer(xs) }},
	{"30pct-zeros", func(r *rng.RNG, xs []float64) {
		for i := range xs {
			if xs[i] = r.Exp(100); r.Float64() < 0.3 {
				xs[i] = 0
			}
		}
	}},
	{"signed-zeros", func(r *rng.RNG, xs []float64) {
		for i := range xs {
			switch r.Intn(4) {
			case 0:
				xs[i] = math.Copysign(0, -1)
			case 1:
				xs[i] = 0
			case 2:
				xs[i] = -r.Exp(1)
			default:
				xs[i] = r.Exp(1)
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

// sortedBits is xs's multiset as sorted bit patterns, which tells −0
// from +0 and one NaN payload from another.
func sortedBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	slices.Sort(out)
	return out
}

func TestPercentileMatchesSort(t *testing.T) {
	r := rng.New(23)
	for _, in := range percentileInputs {
		for _, n := range []int{1, 2, 3, 17, 400, 6000, 6401} {
			xs := make([]float64, n)
			in.fill(r, xs)
			orig := append([]float64(nil), xs...)
			multiset := sortedBits(xs)
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
				if !slices.Equal(sortedBits(own), multiset) {
					t.Fatalf("%s n=%d p=%v: PercentileInPlace changed the multiset", in.name, n, p)
				}
			}
		}
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

// TestPercentileAllocs pins the allocation promise: the in-place read
// allocates nothing, and the copying read keeps its heap on the stack
// while at most 64 samples lie at or above the lower rank.
func TestPercentileAllocs(t *testing.T) {
	r := rng.New(3)
	xs := make([]float64, 6400)
	for i := range xs {
		xs[i] = 1e-3 * math.Exp(-0.5+r.Norm())
	}
	for _, p := range []float64{0, 0.01, 0.99, 1} { // heaps of 6400, 6337, 65 and 1
		if got := testing.AllocsPerRun(20, func() { benchSink = PercentileInPlace(xs, p) }); got != 0 {
			t.Errorf("PercentileInPlace p=%v: %v allocs/op, want 0", p, got)
		}
	}
	for _, n := range []int{1, 64, 2000, 6300} {
		if got := testing.AllocsPerRun(20, func() { benchSink = Percentile(xs[:n], 0.99) }); got != 0 {
			t.Errorf("Percentile n=%d p99: %v allocs/op, want 0", n, got)
		}
	}
}

// FuzzPercentile feeds both entry points arbitrary float64 bit
// patterns — NaN payloads, ±Inf, ±0, subnormals, ties — and any p. Each
// must equal the sort oracle bit for bit (NaN matching NaN), Percentile
// must leave its input untouched and PercentileInPlace must keep its
// multiset.
func FuzzPercentile(f *testing.F) {
	enc := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(enc(1, 2, 3, 4, 5), 0.99)
	f.Add(enc(0, negZero, 0, negZero, 1, -1), 0.5)
	f.Add(enc(negZero, 0), 0.25)
	f.Add(enc(math.Inf(1), math.Inf(-1), 2, 2, 2), 0.9)
	f.Add(enc(5e-324, -5e-324, 1e-310, 0, negZero), 0.3)
	f.Add(enc(1, math.NaN(), 3), 0.5)
	f.Add(enc(7, 7, 7, 7), 2.0)
	f.Add(enc(3, 1, 2), math.Inf(-1))
	f.Fuzz(func(t *testing.T, raw []byte, p float64) {
		if p != p {
			return // a NaN p panics by contract (TestPercentileNonFinite)
		}
		xs := make([]float64, len(raw)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		want := uint64(0)
		if len(xs) > 0 {
			want = math.Float64bits(percentileBySort(xs, p))
		}
		same := func(got float64) bool {
			return math.Float64bits(got) == want || got != got && math.IsNaN(math.Float64frombits(want))
		}
		orig := append([]float64(nil), xs...)
		if got := Percentile(xs, p); !same(got) {
			t.Fatalf("Percentile(%v, %v) = %v (%x), sort = %x", xs, p, got, math.Float64bits(got), want)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("Percentile mutated its input at %d", i)
			}
		}
		if got := PercentileInPlace(xs, p); !same(got) {
			t.Fatalf("PercentileInPlace(%v, %v) = %v (%x), sort = %x", orig, p, got, math.Float64bits(got), want)
		}
		if !slices.Equal(sortedBits(xs), sortedBits(orig)) {
			t.Fatalf("PercentileInPlace changed the multiset of %v: now %v", orig, xs)
		}
	})
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

// BenchmarkP99 reads the p99 of the simulator's shapes — i.i.d.
// log-normal sojourns at two window sizes, a bursty backlog and a
// saturated queue — through Percentile and through the sort it
// replaced.
func BenchmarkP99(b *testing.B) {
	for _, in := range []struct {
		shape string
		n     int
	}{{"lognormal", 6000}, {"lognormal", 2000}, {"sawtooth-burst", 2000}, {"saturated-queue", 2000}} {
		xs := make([]float64, in.n)
		for _, pi := range percentileInputs {
			if pi.name == in.shape {
				pi.fill(rng.New(1), xs)
			}
		}
		for _, impl := range []struct {
			name string
			f    func([]float64, float64) float64
		}{
			{"heap", Percentile},
			{"sort", percentileBySort},
		} {
			b.Run(fmt.Sprintf("%s/%s/n=%d", impl.name, in.shape, in.n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = impl.f(xs, 0.99)
				}
			})
		}
	}
}
