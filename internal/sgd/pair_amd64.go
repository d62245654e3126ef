//go:build amd64 && !noasm

package sgd

import "cuttlesys/internal/cpuid"

// pairEpoch6 runs one full SGD sweep over a CSR-laid run of entries
// with rank-6 factors, two independent surfaces per 128-bit register:
// lanes 0–1 or 2–3 of the interleaved blocks, whichever a.row and
// a.col point at. Implemented in pair_amd64.s.
//
//go:noescape
func pairEpoch6(a *laneArgs)

// quadEpoch6 is the same sweep with four independent surfaces per
// 256-bit register. Implemented in pair_amd64.s.
//
//go:noescape
func quadEpoch6(a *laneArgs)

// laneKernelOK gates the lane trainer: both kernels use VEX-encoded
// floating-point instructions, legal at either width once the CPU and
// OS both advertise AVX.
var laneKernelOK = cpuid.AVX
