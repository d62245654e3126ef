package dds

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"cuttlesys/internal/rng"
)

// sphere is a simple concave objective with a known optimum, as a K = 1
// separable table over the 108-configuration domain: dimension d
// contributes −(j − target[d])² for configuration j.
func sphere(target []int) *SeparableObjective {
	return separable1(len(target), 108, func(d, j int) float64 {
		diff := float64(j - target[d])
		return -diff * diff
	})
}

// separable1 tabulates a per-dimension score into a K = 1 objective
// whose Finish is the identity.
func separable1(dims, configs int, term func(d, j int) float64) *SeparableObjective {
	terms := make([][]float64, dims)
	for d := range terms {
		terms[d] = make([]float64, configs)
		for j := range terms[d] {
			terms[d][j] = term(d, j)
		}
	}
	return &SeparableObjective{K: 1, Base: []float64{0}, Terms: terms, Finish: func(acc []float64) float64 { return acc[0] }}
}

func TestFindsOptimumSerial(t *testing.T) {
	target := []int{10, 50, 90, 30, 70}
	res := SearchSeparable(sphere(target), Params{
		Dims: 5, NumConfigs: 108, Seed: 1, MaxIter: 160,
	})
	for d := range target {
		if math.Abs(float64(res.Best[d]-target[d])) > 6 {
			t.Fatalf("dim %d: found %d, want near %d (best=%v val=%v)",
				d, res.Best[d], target[d], res.Best, res.BestVal)
		}
	}
}

func TestParallelBeatsOrMatchesSerial(t *testing.T) {
	target := []int{10, 50, 90, 30, 70, 20, 60, 100, 5, 80, 40, 55, 75, 15, 95, 35}
	obj := sphere(target)
	serial := SearchSeparable(obj, Params{Dims: 16, NumConfigs: 108, Seed: 2})
	parallel := SearchSeparable(obj, Params{Dims: 16, NumConfigs: 108, Seed: 2, Workers: 8})
	if parallel.BestVal < serial.BestVal-50 {
		t.Fatalf("parallel DDS (%v) much worse than serial (%v)", parallel.BestVal, serial.BestVal)
	}
}

func TestImprovesOverRandomStart(t *testing.T) {
	target := []int{40, 40, 40, 40, 40, 40, 40, 40}
	obj := sphere(target)
	// Best of 50 random points vs full search.
	r := rng.New(3)
	randBest := math.Inf(-1)
	for i := 0; i < 50; i++ {
		x := make([]int, 8)
		for d := range x {
			x[d] = r.Intn(108)
		}
		if v := obj.Eval(x); v > randBest {
			randBest = v
		}
	}
	res := SearchSeparable(obj, Params{Dims: 8, NumConfigs: 108, Seed: 3, Workers: 4})
	if res.BestVal <= randBest {
		t.Fatalf("search (%v) did not improve on random sampling (%v)", res.BestVal, randBest)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	obj := sphere([]int{5, 95, 55})
	a := SearchSeparable(obj, Params{Dims: 3, NumConfigs: 108, Seed: 7, Workers: 4})
	b := SearchSeparable(obj, Params{Dims: 3, NumConfigs: 108, Seed: 7, Workers: 4})
	if a.BestVal != b.BestVal {
		t.Fatalf("same seed, different results: %v vs %v", a.BestVal, b.BestVal)
	}
	for d := range a.Best {
		if a.Best[d] != b.Best[d] {
			t.Fatalf("same seed, different best points")
		}
	}
}

func TestInitSeedingUsed(t *testing.T) {
	target := []int{33, 66, 99, 11}
	obj := sphere(target)
	// Seeding the exact optimum must pin the result there.
	res := SearchSeparable(obj, Params{
		Dims: 4, NumConfigs: 108, Seed: 4, Init: [][]int{append([]int(nil), target...)},
	})
	if res.BestVal != 0 {
		t.Fatalf("seeded optimum lost: best %v val %v", res.Best, res.BestVal)
	}
}

func TestRecordPoints(t *testing.T) {
	obj := sphere([]int{50, 50})
	p := Params{Dims: 2, NumConfigs: 108, Seed: 5, Record: true}
	res := SearchSeparable(obj, p)
	if len(res.Points) != res.Evals {
		t.Fatalf("recorded %d points, evals %d", len(res.Points), res.Evals)
	}
	wd := p.withDefaults()
	wantMin := wd.InitialPoints
	if res.Evals < wantMin {
		t.Fatalf("evals %d below initial set size %d", res.Evals, wantMin)
	}
	// Points must actually carry distinct coordinates, not aliased slices.
	seen := false
	for _, pt := range res.Points[1:] {
		if pt.X[0] != res.Points[0].X[0] || pt.X[1] != res.Points[0].X[1] {
			seen = true
			break
		}
	}
	if !seen {
		t.Fatal("all recorded points identical — aliasing bug")
	}
}

func TestPerturbStaysInBounds(t *testing.T) {
	r := rng.New(6)
	if err := quick.Check(func(xRaw, nRaw uint16) bool {
		n := 1 + int(nRaw%500)
		x := int(xRaw) % n
		for _, rw := range []float64{0.2, 0.3, 0.4, 0.5, 2.0} {
			v := perturb(r, x, rw, n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestObjectiveConcurrencySafety runs many workers over an objective
// whose Finish counts its calls and checks the accumulator it is
// handed: Finish runs concurrently (run under -race in CI) and exactly
// once per evaluation.
func TestObjectiveConcurrencySafety(t *testing.T) {
	var calls atomic.Int64
	obj := separable1(6, 108, func(d, j int) float64 {
		if d == 0 {
			return -float64(j)
		}
		return 0
	})
	obj.Finish = func(acc []float64) float64 {
		calls.Add(1)
		if len(acc) != 1 {
			t.Error("Finish saw the wrong accumulator width")
		}
		return acc[0]
	}
	res := SearchSeparable(obj, Params{Dims: 6, NumConfigs: 108, Seed: 8, Workers: 8})
	if int64(res.Evals) != calls.Load() {
		t.Fatalf("Evals %d != Finish calls %d", res.Evals, calls.Load())
	}
	if res.Best[0] > 10 {
		t.Fatalf("trivial objective not optimised: %v", res.Best)
	}
}

// TestPanicsOnBadParams runs both engines on each bad input: each must
// reject it with a dds: message, not fail later on a runtime error.
func TestPanicsOnBadParams(t *testing.T) {
	for i, p := range []Params{
		{Dims: 0, NumConfigs: 10},
		{Dims: 3, NumConfigs: 0},
		{Dims: 3, NumConfigs: 10, Init: [][]int{{1, 2}}},
		{Dims: 3, NumConfigs: 10, Workers: -1},
	} {
		obj := separable1(p.Dims, p.NumConfigs, func(int, int) float64 { return 0 })
		for _, e := range []struct {
			name   string
			search func()
		}{
			{"SearchSeparable", func() { SearchSeparable(obj, p) }},
			{"SearchReference", func() { SearchReference(obj.Func(), p) }},
		} {
			func() {
				defer func() {
					r := recover()
					if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "dds: ") {
						t.Errorf("case %d: %s recovered %v, want a dds: panic", i, e.name, r)
					}
				}()
				e.search()
			}()
		}
	}
}

func TestSingleConfigDomain(t *testing.T) {
	res := SearchSeparable(separable1(3, 1, func(int, int) float64 { return 1 }), Params{Dims: 3, NumConfigs: 1, Seed: 9})
	for _, v := range res.Best {
		if v != 0 {
			t.Fatal("single-config domain must stay at 0")
		}
	}
}
