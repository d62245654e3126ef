//go:build !amd64 || noasm

package sgd

// laneKernelOK is false without the amd64 assembly kernels (off amd64,
// or built with the noasm tag); the lane entry points fall back to the
// per-surface trainers.
const laneKernelOK = false

func quadEpoch6(a *laneArgs) {
	panic("sgd: lane SGD kernels are not built")
}

func dualEpoch6(a *laneArgs) {
	panic("sgd: lane SGD kernels are not built")
}

func wideEpoch6(a *laneArgs) {
	panic("sgd: lane SGD kernels are not built")
}
