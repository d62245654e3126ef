package stats

import (
	"math"
	"testing"
	"testing/quick"

	"cuttlesys/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !almostEq(got, 2, 1e-12) {
		t.Errorf("GeoMean(1,4) = %v, want 2", got)
	}
	if got := GeoMean([]float64{3, 3, 3}); !almostEq(got, 3, 1e-12) {
		t.Errorf("GeoMean(3,3,3) = %v, want 3", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
	// A zero throughput should crater the mean but not produce NaN.
	got := GeoMean([]float64{0, 100, 100})
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("GeoMean with zero produced %v", got)
	}
	if got > 1 {
		t.Errorf("GeoMean with a zero entry = %v, want heavily penalised (<1)", got)
	}
}

func TestGeoMeanOrderInvariant(t *testing.T) {
	r := rng.New(1)
	if err := quick.Check(func(seed uint64) bool {
		local := rng.New(seed)
		xs := make([]float64, 5)
		for i := range xs {
			xs[i] = 0.1 + 10*local.Float64()
		}
		ys := append([]float64(nil), xs...)
		r.Shuffle(len(ys), func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
		return almostEq(GeoMean(xs), GeoMean(ys), 1e-9)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	if got := Percentile([]float64{9}, 0.99); got != 9 {
		t.Errorf("Percentile(single) = %v, want 9", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 0.5); !almostEq(got, 5, 1e-12) {
		t.Errorf("median of {0,10} = %v, want 5", got)
	}
}

func TestPercentileClampsP(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := Percentile(xs, -0.5); got != 1 {
		t.Errorf("Percentile(p<0) = %v, want min", got)
	}
	if got := Percentile(xs, 1.5); got != 3 {
		t.Errorf("Percentile(p>1) = %v, want max", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Percentile mutated input: %v", xs)
	}
}

func TestP99MonotoneInP(t *testing.T) {
	r := rng.New(2)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.05 {
		v := Percentile(xs, p)
		if v < prev-1e-12 {
			t.Fatalf("percentile not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestBox(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i) // 0..100
	}
	b := Box(xs)
	if b.N != 101 || b.Min != 0 || b.Max != 100 {
		t.Fatalf("Box basic fields wrong: %+v", b)
	}
	if !almostEq(b.Median, 50, 1e-9) || !almostEq(b.P25, 25, 1e-9) || !almostEq(b.P75, 75, 1e-9) {
		t.Fatalf("Box quartiles wrong: %+v", b)
	}
	if !almostEq(b.P5, 5, 1e-9) || !almostEq(b.P95, 95, 1e-9) {
		t.Fatalf("Box whiskers wrong: %+v", b)
	}
	if Box(nil).N != 0 {
		t.Fatal("Box(nil) should be zero value")
	}
}

// TestBoxNaN: sort.Float64s orders NaN first, so one NaN error used to
// shift every percentile down a rank and report a NaN Min beside a
// finite Max. Box now answers NaN for every order statistic, as
// Percentile does, and still counts the samples.
func TestBoxNaN(t *testing.T) {
	xs := []float64{3, 1, math.NaN(), 4, 1, 5, 9, 2, 6}
	b := Box(xs)
	if b.N != len(xs) {
		t.Errorf("Box with a NaN: N = %d, want %d", b.N, len(xs))
	}
	for name, v := range map[string]float64{
		"P5": b.P5, "P25": b.P25, "Median": b.Median, "P75": b.P75, "P95": b.P95, "Min": b.Min, "Max": b.Max,
	} {
		if !math.IsNaN(v) {
			t.Errorf("Box with a NaN: %s = %v, want NaN", name, v)
		}
	}
	if got := Box([]float64{math.NaN()}); !math.IsNaN(got.Median) || got.N != 1 {
		t.Errorf("Box{NaN} = %+v, want NaN statistics over 1 sample", got)
	}
}

func TestBoxOrdering(t *testing.T) {
	r := rng.New(3)
	if err := quick.Check(func(seed uint64) bool {
		local := rng.New(seed)
		xs := make([]float64, 30)
		for i := range xs {
			xs[i] = 10 * local.Norm()
		}
		b := Box(xs)
		return b.Min <= b.P5 && b.P5 <= b.P25 && b.P25 <= b.Median &&
			b.Median <= b.P75 && b.P75 <= b.P95 && b.P95 <= b.Max
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestRelErrPct(t *testing.T) {
	if got := RelErrPct(110, 100); !almostEq(got, 10, 1e-9) {
		t.Errorf("RelErrPct(110,100) = %v, want 10", got)
	}
	if got := RelErrPct(90, 100); !almostEq(got, -10, 1e-9) {
		t.Errorf("RelErrPct(90,100) = %v, want -10", got)
	}
	if got := RelErrPct(1, 0); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("RelErrPct with zero actual = %v, want finite", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Fatal("Clamp misbehaves")
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1.5, 2.5}); !almostEq(got, 4, 1e-12) {
		t.Errorf("Sum = %v, want 4", got)
	}
}
