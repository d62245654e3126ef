//go:build amd64 && !noasm

package cpuid

// cpuid executes CPUID with the leaf in EAX and the subleaf in ECX.
// Implemented in cpuid_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0, the OS-enabled state
// components. Implemented in cpuid_amd64.s.
func xgetbv() (eax uint32)

func probe() (avx2fma, avx512 bool) {
	const osxsave, avxBit, fmaBit, avx2Bit, avx512fBit = 1 << 27, 1 << 28, 1 << 12, 1 << 5, 1 << 16
	// XCR0: SSE and AVX state, then opmask, ZMM0–15 upper halves and
	// ZMM16–31.
	const ymmState, zmmState = 0x6, 0xe6
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	// XGETBV is legal only once OSXSAVE says the OS manages XCR0.
	if ecx1&(osxsave|avxBit) != osxsave|avxBit {
		return false, false
	}
	xcr0 := xgetbv()
	if xcr0&ymmState != ymmState || maxLeaf < 7 || ecx1&fmaBit == 0 {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	avx2fma = ebx7&avx2Bit != 0
	return avx2fma, avx2fma && ebx7&avx512fBit != 0 && xcr0&zmmState == zmmState
}
