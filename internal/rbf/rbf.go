// Package rbf implements Flicker's inference pipeline (§VIII-E): 3MM3
// sampling [99] — an L9 orthogonal array over the three-factor,
// three-level core-configuration space — followed by cubic radial
// basis function surrogate fitting [100-104] to predict performance
// and power on all 27 core configurations from the 9 samples.
//
// The surrogate is the standard cubic RBF interpolant with a linear
// polynomial tail:
//
//	s(x) = Σ λᵢ‖x−xᵢ‖³ + c₀ + c·x
//
// fitted by solving the saddle-point system [Φ P; Pᵀ 0][λ;c] = [f;0].
// With fewer than four samples the linear tail is underdetermined and
// the fit degrades to a constant tail — the regime Fig. 9 probes when
// it gives RBF only three samples and observes errors reaching ±600 %.
package rbf

import (
	"fmt"
	"math"

	"cuttlesys/internal/config"
	"cuttlesys/internal/mat"
)

// Design3MM3 returns the nine core configurations of the 3MM3 sampling
// plan: an L9(3³) orthogonal array covering each section width at each
// level three times, balanced pairwise.
func Design3MM3() []config.Core {
	l9 := [9][3]int{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 2},
		{1, 0, 1}, {1, 1, 2}, {1, 2, 0},
		{2, 0, 2}, {2, 1, 0}, {2, 2, 1},
	}
	out := make([]config.Core, 9)
	for i, row := range l9 {
		out[i] = config.Core{
			FE: config.Widths[row[0]],
			BE: config.Widths[row[1]],
			LS: config.Widths[row[2]],
		}
	}
	return out
}

// coord maps a core configuration into [0,1]³ for the RBF metric.
func coord(c config.Core) [3]float64 {
	f := func(w config.Width) float64 { return (float64(w) - 2) / 4 }
	return [3]float64{f(c.FE), f(c.BE), f(c.LS)}
}

func dist(a, b [3]float64) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Surrogate is a fitted cubic RBF interpolant over core configurations.
type Surrogate struct {
	centers []([3]float64)
	lambda  []float64
	poly    []float64 // c0 [, cx, cy, cz] — constant tail when underdetermined
	linear  bool
}

// Fit builds a surrogate from sampled configurations and their
// observed values. At least two distinct samples are required; with
// fewer than four, the polynomial tail degrades to a constant. It
// returns an error when the interpolation system is singular
// (e.g. duplicate sample points).
func Fit(points []config.Core, values []float64) (*Surrogate, error) {
	n := len(points)
	if n != len(values) {
		return nil, fmt.Errorf("rbf: %d points but %d values", n, len(values))
	}
	if n < 2 {
		return nil, fmt.Errorf("rbf: need at least 2 samples, got %d", n)
	}
	centers := make([]([3]float64), n)
	for i, c := range points {
		centers[i] = coord(c)
	}
	linear := n >= 4
	np := 1
	if linear {
		np = 4
	}
	dim := n + np
	a := mat.NewDense(dim, dim)
	b := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := dist(centers[i], centers[j])
			a.Set(i, j, d*d*d)
		}
		a.Set(i, n, 1)
		a.Set(n, i, 1)
		if linear {
			for k := 0; k < 3; k++ {
				a.Set(i, n+1+k, centers[i][k])
				a.Set(n+1+k, i, centers[i][k])
			}
		}
		b[i] = values[i]
	}
	sol, err := mat.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("rbf: fit failed: %w", err)
	}
	return &Surrogate{
		centers: centers,
		lambda:  sol[:n],
		poly:    sol[n:],
		linear:  linear,
	}, nil
}

// predict evaluates the surrogate at core configuration c.
func (s *Surrogate) predict(c config.Core) float64 {
	x := coord(c)
	v := s.poly[0]
	if s.linear {
		for k := 0; k < 3; k++ {
			v += s.poly[1+k] * x[k]
		}
	}
	for i, ctr := range s.centers {
		d := dist(x, ctr)
		v += s.lambda[i] * d * d * d
	}
	return v
}

// PredictAll evaluates the surrogate on all 27 core configurations, in
// config index order.
func (s *Surrogate) PredictAll() []float64 {
	out := make([]float64, config.NumCoreConfigs)
	for i, c := range config.AllCores() {
		out[i] = s.predict(c)
	}
	return out
}
