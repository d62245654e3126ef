// Package sub holds helpers the hot root reaches transitively.
package sub

import "math"

// Cell scores one dimension; it is not hot-marked itself, so only the
// walk of Score's closure sees its cost.
func Cell(pre []float64, j int) float64 {
	w := grow(pre, j)
	return math.Log(w[0])
}

func grow(pre []float64, j int) []float64 {
	return append(pre, float64(j))
}
