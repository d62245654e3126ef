//go:build !amd64 || noasm

package cpuid

// probe reports no vector extensions: without the amd64 assembly (or
// with it switched off by the noasm tag) the kernels it gates are not
// built.
func probe() (avx2fma, avx512 bool) { return false, false }
