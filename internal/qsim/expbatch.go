package qsim

import "math"

// The AVX exp kernel computes only the inputs for which math.Exp's own
// FMA path (math/exp_amd64.s, label avxfma) neither overflows, nor
// scales into the denormal range, nor special-cases a non-finite
// argument: on [expLo, expHi] the reduced exponent k = round(x·log2 e)
// lies in [−1021, 1023], so 2^k is a normal float64 and the final scale
// is exact. Every other input, NaN included, goes to math.Exp itself.
const (
	expLo = -708.0
	expHi = 709.0
)

// expBatch sets dst[i] = math.Exp(src[i]) for every i, bit for bit;
// dst and src may be the same slice. Where the amd64 kernel runs it
// repeats math.Exp's FMA branch four lanes at a time, which is the
// branch math.Exp takes on any CPU the kernel accepts (AVX2 and FMA
// imply math's useFMA); the tail of fewer than four and the lanes the
// kernel reports out of range fall back to scalar math.Exp.
func expBatch(dst, src []float64) {
	dst = dst[:len(src)]
	i := 0
	if useAVX {
		for i+4 <= len(src) {
			n := min(64, (len(src)-i)&^3)
			if out := expAVX(&dst[i], &src[i], n); out != 0 {
				// The kernel passed each out-of-range input through.
				for j := i; out != 0; j, out = j+1, out>>1 {
					if out&1 != 0 {
						dst[j] = math.Exp(dst[j])
					}
				}
			}
			i += n
		}
	}
	for ; i < len(src); i++ {
		dst[i] = math.Exp(src[i])
	}
}
