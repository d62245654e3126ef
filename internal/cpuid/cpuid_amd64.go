//go:build amd64 && !noasm

package cpuid

// cpuid executes CPUID with the leaf in EAX and the subleaf in ECX.
// Implemented in cpuid_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0, the OS-enabled state
// components. Implemented in cpuid_amd64.s.
func xgetbv() (eax uint32)

func probe() (avx, avx2fma bool) {
	const osxsave, avxBit, fmaBit, avx2Bit = 1 << 27, 1 << 28, 1 << 12, 1 << 5
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	// XGETBV is legal only once OSXSAVE says the OS manages XCR0.
	if ecx1&(osxsave|avxBit) != osxsave|avxBit || xgetbv()&6 != 6 {
		return false, false
	}
	if maxLeaf < 7 || ecx1&fmaBit == 0 {
		return true, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return true, ebx7&avx2Bit != 0
}
