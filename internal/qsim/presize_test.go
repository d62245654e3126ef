package qsim

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"cuttlesys/internal/rng"
)

// refService is the simulator as it was before Step was chunked: one
// query at a time, rng.LogNormal's scalar math.Exp for the demand, and
// the container/heap server set. It is the oracle Step must match.
type refService struct {
	r    *rng.RNG
	now  float64
	free boxedHeap
}

func newRefService(seed uint64, k int) *refService {
	return &refService{r: rng.New(seed), free: make(boxedHeap, k)}
}

func (s *refService) setServers(k int) {
	for len(s.free) > k {
		s.free.removeLatest()
	}
	for len(s.free) < k {
		heap.Push(&s.free, s.now)
	}
}

func (s *refService) advance(dur float64) { s.now += dur }

// stepGrown is that loop with the sojourn slice starting nil and
// growing by doubling, as it did before the result was presized.
func (s *refService) stepGrown(dur, qps, meanSvc, sigma float64) []float64 {
	end := s.now + dur
	var sojourns []float64
	if qps > 0 {
		mu := -sigma * sigma / 2
		t := s.now + s.r.Exp(qps)
		for t < end {
			demand := meanSvc * s.r.LogNormal(mu, sigma)
			start := math.Max(t, s.free[0])
			finish := start + demand
			s.free[0] = finish
			heap.Fix(&s.free, 0)
			sojourns = append(sojourns, finish-t)
			t += s.r.Exp(qps)
		}
	}
	s.now = end
	return sojourns
}

// sameState fails unless s and ref agree on the clock, the stream
// position and the multiset of server free times, bit for bit.
func sameState(t *testing.T, what string, s *Service, ref *refService) {
	t.Helper()
	if math.Float64bits(s.now) != math.Float64bits(ref.now) {
		t.Fatalf("%s: clock %v, oracle %v", what, s.now, ref.now)
	}
	if *s.r != *ref.r {
		t.Fatalf("%s: stream position diverged", what)
	}
	sameMultiset(t, what, &s.freeAt, ref.free)
}

// sameSojourns fails unless got and want are bit-identical.
func sameSojourns(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sojourns, oracle has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sojourn %d = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

func TestStepPresizedMatchesGrown(t *testing.T) {
	overflowed := false
	for seed := uint64(1); seed <= 200; seed++ {
		a, b := NewService(seed, 8), newRefService(seed, 8)
		// A profiling window, a steady window, an overloaded one, an
		// idle one, and one so sparse its presized capacity is zero.
		for _, w := range []struct{ dur, qps float64 }{
			{0.001, 17000}, {0.098, 17000}, {0.1, 40000}, {0.1, 0}, {0.001, 50},
		} {
			got, want := a.Step(w.dur, w.qps, 0.4e-3, 0.45), b.stepGrown(w.dur, w.qps, 0.4e-3, 0.45)
			sameSojourns(t, fmt.Sprintf("seed %d window %+v", seed, w), got, want)
			overflowed = overflowed || len(got) > sojournCap(w.qps*w.dur)
		}
		sameState(t, fmt.Sprintf("seed %d", seed), a, b)
	}
	if !overflowed {
		t.Fatal("no window outran its presized capacity; the growth path went untested")
	}
}

func TestSojournCapIsBounded(t *testing.T) {
	if got := sojournCap(2500); got != 2500+4*50 {
		t.Errorf("sojournCap(2500) = %d, want mean + 4 sigma = %d", got, 2500+4*50)
	}
	if got := sojournCap(0.05); got != 0 {
		t.Errorf("sojournCap(0.05) = %d, want 0", got)
	}
	// A 1e12 qps window must not ask for 1e11 slots.
	for _, mean := range []float64{1e11, math.MaxFloat64, math.Inf(1), math.NaN()} {
		if got := sojournCap(mean); got != maxSojournCap {
			t.Errorf("sojournCap(%v) = %d, want the cap %d", mean, got, maxSojournCap)
		}
	}
}
