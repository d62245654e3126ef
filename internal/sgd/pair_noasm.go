//go:build !amd64

package sgd

// laneKernelOK is false without the amd64 assembly kernels; the lane
// entry points fall back to the per-surface trainers.
const laneKernelOK = false

func pairEpoch6(a *laneArgs) {
	panic("sgd: lane SGD kernels are amd64-only")
}

func quadEpoch6(a *laneArgs) {
	panic("sgd: lane SGD kernels are amd64-only")
}
