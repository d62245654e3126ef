// Package cpuid probes, once, the x86 vector extensions the assembly
// kernels of internal/sgd, internal/mat and internal/qsim need. Built
// with the noasm tag, or off amd64, it reports none and the packages
// run their Go paths, so `go test -tags noasm` exercises every Go path on any host.
// The kernels are bit-identical to those paths, so the tag changes
// speed, never results.
package cpuid

// AVX2FMA reports AVX, FMA and AVX2 with OS-enabled XMM/YMM state:
// CPUID.1:ECX AVX (bit 28), OSXSAVE (bit 27) and FMA (bit 12),
// CPUID.(7,0):EBX AVX2 (bit 5), and XCR0's SSE and AVX state bits (1
// and 2). The queue-simulator kernels need it.
//
// AVX512 additionally reports AVX-512F (CPUID.(7,0):EBX bit 16) with
// OS-enabled opmask and ZMM state: XCR0 bits 5, 6 and 7 beside 1 and 2.
// The lane SGD kernel and the Jacobi SVD lanes need it.
var AVX2FMA, AVX512 = probe()
