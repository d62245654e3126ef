//go:build amd64 && !noasm

package sgd

// wideEpoch6 runs one full SGD sweep over a pair's slot schedule: four
// cells of the pair's two surfaces per 512-bit register, on two-lane
// blocks. It needs AVX-512F (laneKernelOK). Implemented in
// pair_amd64.s.
//
//go:noescape
func wideEpoch6(a *laneArgs)
