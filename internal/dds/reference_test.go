package dds

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestEngineMatchesReference is the cross-implementation contract: the
// incremental engine must return the same Best, BestVal bits and
// Evals as the preserved pre-change implementation over the closure
// form of the same objective, for every seed and worker count — the
// fast path changes wall-clock only, never decisions.
func TestEngineMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for seed := uint64(1); seed <= 5; seed++ {
			sep := testSeparable(seed*131, 26, 108)
			p := Params{
				Dims: 26, NumConfigs: 108, MaxIter: 15,
				InitialPoints: 25, Workers: workers, Seed: seed,
			}
			ref := SearchReference(sep.Func(), p)
			got := SearchSeparable(sep, p)
			if !reflect.DeepEqual(ref.Best, got.Best) {
				t.Fatalf("w=%d seed=%d: Best differs from reference:\nref %v\ngot %v",
					workers, seed, ref.Best, got.Best)
			}
			if math.Float64bits(ref.BestVal) != math.Float64bits(got.BestVal) {
				t.Fatalf("w=%d seed=%d: BestVal bits differ: %x vs %x",
					workers, seed, math.Float64bits(ref.BestVal), math.Float64bits(got.BestVal))
			}
			if ref.Evals != got.Evals {
				t.Fatalf("w=%d seed=%d: Evals %d vs %d", workers, seed, ref.Evals, got.Evals)
			}
		}
	}
}

// pointCounts keys each recorded point by its vector and value bits,
// so two Points slices can be compared as multisets.
func pointCounts(pts []Point) map[string]int {
	m := make(map[string]int, len(pts))
	for _, pt := range pts {
		m[fmt.Sprintf("%v|%x", pt.X, math.Float64bits(pt.Val))]++
	}
	return m
}

// TestReferencePointsSameSet documents the reference engine's Points
// wart: with Workers > 1 the set of evaluated points matches the fixed
// engine, but the order is interleaving-dependent — which is exactly
// why the fixed engine merges per-worker buffers in worker order.
func TestReferencePointsSameSet(t *testing.T) {
	sep := testSeparable(17, 12, 30)
	p := Params{
		Dims: 12, NumConfigs: 30, MaxIter: 8,
		InitialPoints: 10, Workers: 4, Seed: 9, Record: true,
	}
	ref := SearchReference(sep.Func(), p)
	fixed := SearchSeparable(sep, p)
	if len(ref.Points) != len(fixed.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(ref.Points), len(fixed.Points))
	}
	if !reflect.DeepEqual(pointCounts(ref.Points), pointCounts(fixed.Points)) {
		t.Fatal("reference and fixed engines evaluated different point multisets")
	}
}
