package qsim

import (
	"math"
	"testing"
)

// stepGrown is Step as it was before the result was presized: the
// sojourn slice starts nil and grows by doubling.
func (s *Service) stepGrown(dur, qps, meanSvc, sigma float64) []float64 {
	end := s.now + dur
	var sojourns []float64
	if qps > 0 {
		mu := -sigma * sigma / 2
		t := s.now + s.r.Exp(qps)
		for t < end {
			demand := meanSvc * s.r.LogNormal(mu, sigma)
			start := math.Max(t, s.freeAt[0])
			finish := start + demand
			s.freeAt.replaceMin(finish)
			sojourns = append(sojourns, finish-t)
			t += s.r.Exp(qps)
		}
	}
	s.now = end
	return sojourns
}

func TestStepPresizedMatchesGrown(t *testing.T) {
	overflowed := false
	for seed := uint64(1); seed <= 200; seed++ {
		a, b := NewService(seed, 8), NewService(seed, 8)
		// A profiling window, a steady window, an overloaded one, an
		// idle one, and one so sparse its presized capacity is zero.
		for _, w := range []struct{ dur, qps float64 }{
			{0.001, 17000}, {0.098, 17000}, {0.1, 40000}, {0.1, 0}, {0.001, 50},
		} {
			got, want := a.Step(w.dur, w.qps, 0.4e-3, 0.45), b.stepGrown(w.dur, w.qps, 0.4e-3, 0.45)
			if len(got) != len(want) {
				t.Fatalf("seed %d window %+v: %d sojourns, grown slice has %d", seed, w, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("seed %d window %+v: sojourn %d differs", seed, w, i)
				}
			}
			overflowed = overflowed || len(got) > sojournCap(w.qps*w.dur)
		}
		if a.now != b.now || backlog(a) != backlog(b) || a.r.Uint64() != b.r.Uint64() {
			t.Fatalf("seed %d: queue state or stream position diverged", seed)
		}
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
