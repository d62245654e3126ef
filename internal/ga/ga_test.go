package ga

import (
	"math"
	"testing"

	"cuttlesys/internal/rng"
)

func sphere(target []int) Objective {
	return func(x []int) float64 {
		s := 0.0
		for d := range x {
			diff := float64(x[d] - target[d])
			s -= diff * diff
		}
		return s
	}
}

func TestFindsNearOptimum(t *testing.T) {
	target := []int{10, 50, 90, 30}
	res := Search(sphere(target), Params{
		Dims: 4, NumConfigs: 108, Seed: 1, Generations: 120, Population: 80,
	})
	for d := range target {
		if math.Abs(float64(res.Best[d]-target[d])) > 8 {
			t.Fatalf("dim %d: found %d, want near %d", d, res.Best[d], target[d])
		}
	}
}

func TestImprovesOverRandom(t *testing.T) {
	target := []int{40, 70, 20, 90, 10, 60, 30, 80}
	obj := sphere(target)
	r := rng.New(2)
	randBest := math.Inf(-1)
	for i := 0; i < 50; i++ {
		x := make([]int, 8)
		for d := range x {
			x[d] = r.Intn(108)
		}
		if v := obj(x); v > randBest {
			randBest = v
		}
	}
	res := Search(obj, Params{Dims: 8, NumConfigs: 108, Seed: 2})
	if res.BestVal <= randBest {
		t.Fatalf("GA (%v) did not beat random sampling (%v)", res.BestVal, randBest)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	obj := sphere([]int{15, 85})
	a := Search(obj, Params{Dims: 2, NumConfigs: 108, Seed: 3})
	b := Search(obj, Params{Dims: 2, NumConfigs: 108, Seed: 3})
	if a.BestVal != b.BestVal || a.Best[0] != b.Best[0] || a.Best[1] != b.Best[1] {
		t.Fatal("GA not deterministic for equal seeds")
	}
}

func TestElitismNeverLosesBest(t *testing.T) {
	// Track the best value seen via recording; the final result must
	// match the best recorded point (elitism + best tracking).
	obj := sphere([]int{55, 5, 105})
	res := Search(obj, Params{Dims: 3, NumConfigs: 108, Seed: 4, Record: true})
	recorded := math.Inf(-1)
	for _, p := range res.Points {
		if p.Val > recorded {
			recorded = p.Val
		}
	}
	if res.BestVal != recorded {
		t.Fatalf("BestVal %v != best recorded %v", res.BestVal, recorded)
	}
}

func TestInitSeeding(t *testing.T) {
	target := []int{77, 7, 47, 17}
	res := Search(sphere(target), Params{
		Dims: 4, NumConfigs: 108, Seed: 5, Init: [][]int{append([]int(nil), target...)},
	})
	if res.BestVal != 0 {
		t.Fatalf("seeded optimum lost: %v", res.Best)
	}
}

func TestEvalsAccounting(t *testing.T) {
	p := Params{Dims: 2, NumConfigs: 10, Seed: 7, Population: 20, Generations: 5, Elite: 2}
	res := Search(sphere([]int{3, 4}), p)
	want := 20 + 5*(20-2) // initial population + offspring per generation
	if res.Evals != want {
		t.Fatalf("Evals = %d, want %d", res.Evals, want)
	}
}

func TestPanicsOnBadParams(t *testing.T) {
	for i, p := range []Params{
		{Dims: 0, NumConfigs: 5},
		{Dims: 2, NumConfigs: 0},
		{Dims: 2, NumConfigs: 5, Init: [][]int{{1, 2, 3}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			Search(func([]int) float64 { return 0 }, p)
		}()
	}
}
