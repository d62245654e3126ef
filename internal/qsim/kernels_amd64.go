//go:build amd64

package qsim

// useAVX selects the assembly kernels in kernels_amd64.s. It is a
// variable only so the equivalence tests can force the Go paths.
var useAVX = cpuHasAVX2FMA()

// cpuHasAVX2FMA reports AVX, AVX2 and FMA support with OS-enabled
// XMM/YMM state. Implemented in kernels_amd64.s.
func cpuHasAVX2FMA() bool

// expAVX sets dst[i] = math.Exp(src[i]) for the n inputs (n a multiple
// of 4, at most 64) that lie in [expLo, expHi], and copies every other
// input through unchanged; bit i of the result marks input i as one of
// those. Implemented in kernels_amd64.s.
//
//go:noescape
func expAVX(dst, src *float64, n int) uint64

// serveAVX is freeTimes.serve's Go loop over n queries at ts and ms,
// with v the free-time vector's backing array and groups its
// freeTimes.groups(). Implemented in kernels_amd64.s.
//
//go:noescape
func serveAVX(v *float64, groups int, ts, ms *float64, n int, svc float64)
