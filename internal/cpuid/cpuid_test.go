package cpuid

import "testing"

// The queue kernels' requirement includes the lane kernels': a host
// with AVX2 and FMA but no usable AVX state would run the qsim kernels
// where the sgd ones are refused.
func TestAVX2FMAImpliesAVX(t *testing.T) {
	if AVX2FMA && !AVX {
		t.Fatal("AVX2FMA reported without AVX")
	}
	t.Logf("AVX=%v AVX2FMA=%v", AVX, AVX2FMA)
}

// The wide sgd kernel's requirement includes the queue kernels' (and so
// the lane kernels'): AVX512 ⇒ AVX2FMA ⇒ AVX.
func TestAVX512ImpliesAVX2FMA(t *testing.T) {
	if AVX512 && !(AVX2FMA && AVX) {
		t.Fatalf("AVX512 reported without AVX2FMA (%v) or AVX (%v)", AVX2FMA, AVX)
	}
	t.Logf("AVX512=%v", AVX512)
}
