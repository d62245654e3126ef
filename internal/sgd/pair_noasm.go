//go:build !amd64 || noasm

package sgd

// wideEpoch6 is not built off amd64 or with the noasm tag; the CPU
// probe then reports no AVX-512, so the lanes train per surface.
func wideEpoch6(a *laneArgs) {
	panic("sgd: the lane SGD kernel is not built")
}
