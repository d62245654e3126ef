// Draw's helper documents a waived allocation below the root.
package allowed

// Draw perturbs one dimension through a helper.
//
//hot:path per-candidate draw
func Draw(xs []float64, i int) float64 {
	return helper(xs, i)
}

func helper(xs []float64, i int) float64 {
	buf := make([]float64, 1) //lint:allow hotpath one-element scratch; measured zero steady-state allocations after inlining
	buf[0] = xs[i]
	return buf[0]
}
