//go:build !amd64 || noasm

package mat

// rotateLanes is not built off amd64 or with the noasm tag; the CPU
// probe then reports no AVX-512, so rotate runs sweepRows.
func rotateLanes(w, v *float64, m, n, p, q, k int) bool {
	panic("mat: the Jacobi lane kernel is not built")
}
