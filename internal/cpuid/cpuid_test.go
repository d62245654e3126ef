package cpuid

import "testing"

// The wide sgd kernel's requirement includes the queue kernels':
// AVX512 ⇒ AVX2FMA, so a host that runs the one runs the other.
func TestAVX512ImpliesAVX2FMA(t *testing.T) {
	if AVX512 && !AVX2FMA {
		t.Fatal("AVX512 reported without AVX2FMA")
	}
	t.Logf("AVX2FMA=%v AVX512=%v", AVX2FMA, AVX512)
}
