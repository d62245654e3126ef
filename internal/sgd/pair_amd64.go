//go:build amd64 && !noasm

package sgd

import "cuttlesys/internal/cpuid"

// quadEpoch6 runs one full SGD sweep over a CSR-laid run of entries
// with rank-6 factors, four independent surfaces per 256-bit register.
// Implemented in pair_amd64.s.
//
//go:noescape
func quadEpoch6(a *laneArgs)

// dualEpoch6 runs one full SGD sweep over a pair's slot schedule: two
// cells of the pair's two surfaces per 256-bit register, lanes 0–1 or
// 2–3 of the four-lane blocks, whichever a.row and a.col point at.
// Implemented in pair_amd64.s.
//
//go:noescape
func dualEpoch6(a *laneArgs)

// wideEpoch6 runs one full SGD sweep over a pair's slot schedule: four
// cells of the pair's two surfaces per 512-bit register, on two-lane
// blocks. It needs AVX-512F (laneWide). Implemented in pair_amd64.s.
//
//go:noescape
func wideEpoch6(a *laneArgs)

// laneKernelOK gates the lane trainer: the quad and dual kernels use
// VEX-encoded floating-point instructions, legal once the CPU and OS
// both advertise AVX.
var laneKernelOK = cpuid.AVX
