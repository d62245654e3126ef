package qsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"cuttlesys/internal/rng"
)

// TestStepMatchesOracle drives Step and the one-query-at-a-time heap
// oracle over seeds × server counts 1..33 (one to nine 4-lane groups,
// every remainder) × loads from light through overload × dispersions,
// several windows each, and demands bit-identical sojourns, clocks,
// stream positions and free-time multisets.
func TestStepMatchesOracle(t *testing.T) {
	const meanSvc = 0.5e-3
	eachKernel(t, func(t *testing.T) {
		for seed := uint64(1); seed <= 3; seed++ {
			for k := 1; k <= 33; k++ {
				for _, load := range []float64{0.2, 0.9, 1.3} {
					for _, sigma := range []float64{0, 0.3, 0.8, 1.6} {
						what := fmt.Sprintf("seed %d k %d load %v sigma %v", seed, k, load, sigma)
						s, ref := NewService(seed, k), newRefService(seed, k)
						qps := load * float64(k) / meanSvc
						for _, dur := range []float64{0.001, 0.02, 0.0005} {
							sameSojourns(t, what, s.Step(dur, qps, meanSvc, sigma), ref.stepGrown(dur, qps, meanSvc, sigma))
						}
						sameState(t, what, s, ref)
					}
				}
			}
		}
	})
}

// TestStepMatchesOracleAcrossResizes interleaves windows with server
// grows and shrinks and with Advance, the way the machine steps the
// queue through reconfigurations and zero-throughput windows.
func TestStepMatchesOracleAcrossResizes(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for seed := uint64(1); seed <= 40; seed++ {
			r := rng.New(1000 + seed)
			k := 1 + r.Intn(33)
			s, ref := NewService(seed, k), newRefService(seed, k)
			for op := 0; op < 60; op++ {
				what := fmt.Sprintf("seed %d op %d", seed, op)
				switch r.Intn(4) {
				case 0:
					k = 1 + r.Intn(33)
					s.SetServers(k)
					ref.setServers(k)
				case 1:
					dur := 0.001 + r.Float64()*0.01
					s.Advance(dur)
					ref.advance(dur)
				default:
					meanSvc := 0.2e-3 + r.Float64()*1e-3
					qps := r.Float64() * 1.4 * float64(k) / meanSvc
					sigma := r.Float64()
					dur := 0.001 + r.Float64()*0.01
					sameSojourns(t, what, s.Step(dur, qps, meanSvc, sigma), ref.stepGrown(dur, qps, meanSvc, sigma))
				}
				sameState(t, what, s, ref)
			}
		}
	})
}

// TestStepRejectsNonFinite pins the guards against NaN and infinite
// inputs: each must panic before touching the queue, which stays
// usable afterwards. NaN fails every ordered comparison, so a guard
// written as x <= 0 let it through.
func TestStepRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		call func(s *Service)
	}{
		{"dur NaN", func(s *Service) { s.Step(nan, 1000, 1e-3, 0.3) }},
		{"dur +Inf", func(s *Service) { s.Step(inf, 1000, 1e-3, 0.3) }},
		{"meanSvc NaN", func(s *Service) { s.Step(0.01, 1000, nan, 0.3) }},
		{"meanSvc +Inf", func(s *Service) { s.Step(0.01, 1000, inf, 0.3) }},
		{"qps NaN", func(s *Service) { s.Step(0.01, nan, 1e-3, 0.3) }},
		{"qps +Inf", func(s *Service) { s.Step(0.01, inf, 1e-3, 0.3) }},
		{"qps -Inf", func(s *Service) { s.Step(0.01, -inf, 1e-3, 0.3) }},
		{"sigma NaN", func(s *Service) { s.Step(0.01, 1000, 1e-3, nan) }},
		{"sigma +Inf", func(s *Service) { s.Step(0.01, 1000, 1e-3, inf) }},
		{"sigma -Inf", func(s *Service) { s.Step(0.01, 1000, 1e-3, -inf) }},
		{"Advance NaN", func(s *Service) { s.Advance(nan) }},
		{"Advance +Inf", func(s *Service) { s.Advance(inf) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, ref := NewService(3, 4), newRefService(3, 4)
			s.Step(0.01, 1000, 1e-3, 0.3)
			ref.stepGrown(0.01, 1000, 1e-3, 0.3)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("no panic")
					}
				}()
				c.call(s)
			}()
			sameState(t, "after the rejected call", s, ref)
			sj := s.Step(0.01, 1000, 1e-3, 0.3)
			sameSojourns(t, "next window", sj, ref.stepGrown(0.01, 1000, 1e-3, 0.3))
			for _, v := range sj {
				if !(v > 0 && v < 1) {
					t.Fatalf("sojourn %v after the rejected call", v)
				}
			}
		})
	}
}

// expEdges are the inputs where math.Exp's own branches or the kernel's
// range test change course: non-finite values, signed zeros, the
// overflow threshold and the kernel's [expLo, expHi] bounds with their
// neighbours, results that are denormal or round to zero, and a
// denormal argument.
var expEdges = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	7.09782712893384e+02, math.Nextafter(7.09782712893384e+02, 1000), 709.5,
	expHi, math.Nextafter(expHi, 1000), math.Nextafter(expHi, 0),
	expLo, math.Nextafter(expLo, -1000), math.Nextafter(expLo, 0),
	-709, -720, -740, -744.4, -745, -745.2, -746, -1e300, 1e300,
	5e-324, -5e-324, 1, -1, 0.5 * math.Ln2, -0.5 * math.Ln2, 1e-17,
}

// checkExpBatch fails unless expBatch equals math.Exp bit for bit on
// xs, both into a separate slice and in place.
func checkExpBatch(t *testing.T, xs []float64) {
	t.Helper()
	dst := make([]float64, len(xs))
	expBatch(dst, xs)
	inPlace := append([]float64(nil), xs...)
	expBatch(inPlace, inPlace)
	for i, x := range xs {
		want := math.Float64bits(math.Exp(x))
		if got := math.Float64bits(dst[i]); got != want {
			t.Fatalf("len %d: exp(%v) = %v (%#x), math.Exp %v (%#x)", len(xs), x, dst[i], got, math.Exp(x), want)
		}
		if got := math.Float64bits(inPlace[i]); got != want {
			t.Fatalf("len %d in place: exp(%v) = %v, math.Exp %v", len(xs), x, inPlace[i], math.Exp(x))
		}
	}
}

// TestExpBatchMatchesMathExp sweeps lengths across the 4-lane and
// 64-input boundaries with the edge inputs salted into uniform draws
// over [−800, 800] and over the log-normal demand range.
func TestExpBatchMatchesMathExp(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		r := rng.New(17)
		for n := 0; n <= 140; n++ {
			for trial := 0; trial < 20; trial++ {
				xs := make([]float64, n)
				for i := range xs {
					switch r.Intn(3) {
					case 0:
						xs[i] = expEdges[r.Intn(len(expEdges))]
					case 1:
						xs[i] = (r.Float64() - 0.5) * 1600
					default:
						xs[i] = -0.1 + 0.5*r.Norm()
					}
				}
				checkExpBatch(t, xs)
			}
		}
	})
}

// floatsBytes encodes xs as little-endian float64 bits, the fuzz
// input format of FuzzExpBatch.
func floatsBytes(xs ...float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// FuzzExpBatch compares expBatch with math.Exp bit for bit on
// arbitrary float64 slices (the input bytes, eight per value; a ragged
// tail is dropped).
func FuzzExpBatch(f *testing.F) {
	f.Add(floatsBytes(expEdges...))
	f.Add(floatsBytes(math.NaN(), math.Inf(1), math.Inf(-1)))
	f.Add(floatsBytes(0, math.Copysign(0, -1), 7.09782712893384e+02, -745, -740))
	f.Add(floatsBytes(-744.4, 709.5, 1, 2, 3))
	f.Add(floatsBytes(-0.3, 0.1, 0.7, -1.2, 0.05, 0.4, -0.9))
	f.Fuzz(func(t *testing.T, b []byte) {
		xs := make([]float64, len(b)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		checkExpBatch(t, xs)
	})
}
