//go:build amd64 && !noasm

package mat

// rotateLanes is rotate's AVX-512 executor, one wavefront step at a
// time: up to sixteen pairs in the lanes of two 512-bit halves, bit for
// bit sweepRows. It needs AVX-512F (jacobiLanes). Implemented in
// jacobi_amd64.s.
//
//go:noescape
func rotateLanes(w, v *float64, m, n, p, q, k int) bool
