package rng

import (
	"fmt"
	"math"
	"testing"
)

// arrivalsLoop is the oracle for Arrivals: the loop of Norm and Exp
// calls it replaces, one query at a time.
func arrivalsLoop(r *RNG, ts, zs []float64, t, end, rate float64) (int, float64) {
	n := 0
	for ; n < len(ts) && t < end; n++ {
		ts[n] = t
		zs[n] = r.Norm()
		t += r.Exp(rate)
	}
	return n, t
}

// drawPath names the path the next draw from r (a copy, so r's owner
// does not move) takes through the normal or the exponential ziggurat:
// "rectangle", "base" (the base strip), "wedge" (accepted in the
// wedge) or "rejected" (the wedge test fails and the draw starts over).
func drawPath(r RNG, normal bool) string {
	u := r.Uint64()
	if normal {
		j, i := int32(u), u>>32&0x7F
		x := float64(j) * float64(wn[i])
		switch {
		case absInt32(j) < kn[i]:
			return "rectangle"
		case i == 0:
			return "base"
		}
		if _, ok := r.normMiss(j, i, x); ok {
			return "wedge"
		}
		return "rejected"
	}
	j, i := uint32(u), uint8(u>>32)
	x := float64(j) * float64(we[i])
	switch {
	case j < ke[i]:
		return "rectangle"
	case i == 0:
		return "base"
	}
	if _, ok := r.expMiss(i, x); ok {
		return "wedge"
	}
	return "rejected"
}

// slowPathSeeds returns, for each sampler and each path off the
// rectangle, the smallest seed whose first query leaves its rectangle
// that way: its normal draw for the normal paths, and for the
// exponential paths its gap draw after a normal draw inside the
// rectangle.
func slowPathSeeds(t *testing.T) []uint64 {
	t.Helper()
	seeds := map[string]uint64{}
	for seed := uint64(1); seed < 1<<20 && len(seeds) < 6; seed++ {
		r := New(seed)
		p := drawPath(*r, true)
		if p == "rectangle" {
			r.Uint64() // the normal draw; the gap's draw is next
			p = "exp/" + drawPath(*r, false)
		} else {
			p = "norm/" + p
		}
		if _, ok := seeds[p]; !ok && p != "exp/rectangle" {
			seeds[p] = seed
		}
	}
	var out []uint64
	for _, p := range []string{"norm/base", "norm/wedge", "norm/rejected", "exp/base", "exp/wedge", "exp/rejected"} {
		seed, ok := seeds[p]
		if !ok {
			t.Fatalf("no seed below 2^20 takes the %s path on its first query", p)
		}
		out = append(out, seed)
	}
	return out
}

// sameArrivals compares an Arrivals pass with the oracle's, bit for bit:
// count, next arrival, every time and deviate, and the stream state.
func sameArrivals(t *testing.T, name string, got, want *RNG, n, wantN int, next, wantNext float64, ts, zs, wantTs, wantZs []float64) {
	t.Helper()
	if n != wantN || math.Float64bits(next) != math.Float64bits(wantNext) {
		t.Fatalf("%s: (n, next) = (%d, %v), loop (%d, %v)", name, n, next, wantN, wantNext)
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(ts[i]) != math.Float64bits(wantTs[i]) || math.Float64bits(zs[i]) != math.Float64bits(wantZs[i]) {
			t.Fatalf("%s: query %d = (%v, %v), loop (%v, %v)", name, i, ts[i], zs[i], wantTs[i], wantZs[i])
		}
	}
	if *got != *want {
		t.Fatalf("%s: stream state %+v, loop %+v", name, *got, *want)
	}
}

// TestArrivalsMatchesDrawLoop holds Arrivals to the Norm and Exp loop
// it replaces, bit for bit, including the stream state it leaves: on
// many seeds and seeds whose first query leaves a rectangle by each
// slow path of both samplers, at rates from one query per window to
// thousands, on chunks of every length class, windows that end inside
// a chunk, empty windows, and a whole window drawn chunk after chunk
// the way qsim draws one.
func TestArrivalsMatchesDrawLoop(t *testing.T) {
	seeds := []uint64{}
	for seed := uint64(0); seed < 40; seed++ {
		seeds = append(seeds, seed)
	}
	seeds = append(seeds, slowPathSeeds(t)...)
	rates := []float64{0.37, 10, 1000, 24000, 3.5e6}
	var ts, zs, wantTs, wantZs [64]float64
	for _, seed := range seeds {
		for _, rate := range rates {
			for _, size := range []int{0, 1, 7, 64} {
				// Windows expected to hold 0, about half of and about
				// twice the chunk, from a start inside the window and
				// one at or past its end.
				for _, span := range []float64{0, 0.5 * float64(size) / rate, 2 * float64(size) / rate} {
					for _, t0 := range []float64{0, span} {
						name := fmt.Sprintf("seed=%d/rate=%v/len=%d/span=%v/t0=%v", seed, rate, size, span, t0)
						got, want := New(seed), New(seed)
						wantN, wantNext := arrivalsLoop(want, wantTs[:size], wantZs[:size], t0, span, rate)
						n, next := got.Arrivals(ts[:size], zs[:size], t0, span, rate)
						sameArrivals(t, name, got, want, n, wantN, next, wantNext, ts[:], zs[:], wantTs[:], wantZs[:])
					}
				}
			}

			// A whole window of about 10 000 queries, chunk after chunk,
			// continuing one stream: most slow paths occur in it.
			name := fmt.Sprintf("seed=%d/rate=%v/window", seed, rate)
			got, want := New(seed), New(seed)
			end := 1e4 / rate
			gt, wt := 0.0, 0.0
			for chunk := 0; wt < end; chunk++ {
				var n, wantN int
				wantN, wt = arrivalsLoop(want, wantTs[:], wantZs[:], wt, end, rate)
				n, gt = got.Arrivals(ts[:], zs[:], gt, end, rate)
				sameArrivals(t, fmt.Sprintf("%s/chunk=%d", name, chunk), got, want, n, wantN, gt, wt, ts[:], zs[:], wantTs[:], wantZs[:])
			}
		}
	}
}

// TestArrivalsEmptyWindowDrawsNothing checks that a window already over
// draws nothing: no query, the start returned, the stream untouched.
func TestArrivalsEmptyWindowDrawsNothing(t *testing.T) {
	var ts, zs [64]float64
	for _, t0 := range []float64{1, 2, math.Inf(1)} {
		r := New(3)
		before := *r
		n, next := r.Arrivals(ts[:], zs[:], t0, 1, 1000)
		if n != 0 || next != t0 || *r != before {
			t.Errorf("t0=%v: (n, next) = (%d, %v), state moved %v", t0, n, next, *r != before)
		}
	}
}

func TestArrivalsPanicsOnNonPositiveRate(t *testing.T) {
	var ts, zs [4]float64
	for _, rate := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Arrivals(rate %v) did not panic", rate)
				}
			}()
			New(1).Arrivals(ts[:], zs[:], 0, 1, rate)
		}()
	}
}
