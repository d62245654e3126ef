package clean

// Fold is hot and reaches only pure arithmetic.
//
//hot:path pure fold
func Fold(pre []float64, x []int) float64 {
	s := 0.0
	for _, j := range x {
		s += at(pre, j)
	}
	return s
}

func at(pre []float64, j int) float64 {
	return pre[j]
}

// Unreached allocates but sits on no hot path, so the closure walk
// must stay silent about it.
func Unreached(n int) []float64 {
	return make([]float64, n)
}
