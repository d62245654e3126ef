//go:build !amd64

package qsim

// useAVX is false without the amd64 assembly kernels; expBatch and
// freeTimes.serve run their Go paths.
var useAVX = false

func expAVX(dst, src *float64, n int) uint64 {
	panic("qsim: AVX kernels are amd64-only")
}

func serveAVX(v *float64, groups int, ts, ms *float64, n int, svc float64) {
	panic("qsim: AVX kernels are amd64-only")
}
