// Package mat implements the small dense linear algebra kernel the
// repository needs: matrices, a partial-pivoting linear solver
// (used to fit Flicker's RBF surrogates), and a one-sided Jacobi SVD
// (used to initialise the P/Q factors of the collaborative-filtering
// reconstruction, as described in §V of the paper).
//
// The matrices here are tiny — at most a few hundred rows (applications)
// by ~108 columns (resource configurations) — so the implementations
// favour clarity and numerical robustness over blocking or SIMD.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewDense returns a zeroed r×c matrix. It panics on non-positive
// dimensions.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// row returns a view (not a copy) of row i.
func (m *Dense) row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// clone returns a deep copy.
func (m *Dense) clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// transpose returns the transpose as a new matrix.
func (m *Dense) transpose() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Solve solves A·x = b by Gaussian elimination with partial pivoting,
// where A is square. A and b are not modified. It returns an error when
// the system is (numerically) singular.
func Solve(a *Dense, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("mat: Solve needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("mat: Solve rhs length %d != %d", len(b), n)
	}
	// Working copies.
	m := a.clone()
	x := append([]float64(nil), b...)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		pmax := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > pmax {
				pmax, pivot = v, r
			}
		}
		if pmax < 1e-13 {
			return nil, fmt.Errorf("mat: singular system at column %d", col)
		}
		if pivot != col {
			pr, cr := m.row(pivot), m.row(col)
			for j := range pr {
				pr[j], cr[j] = cr[j], pr[j]
			}
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			rrow, crow := m.row(r), m.row(col)
			for j := col; j < n; j++ {
				rrow[j] -= f * crow[j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := m.row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// SVDResult holds the thin singular value decomposition A = U·Σ·Vᵀ with
// singular values in non-increasing order. U is m×k, V is n×k, and S has
// length k = min(m, n).
type SVDResult struct {
	U *Dense
	S []float64
	V *Dense
}

// SVD computes the thin singular value decomposition of a by one-sided
// Jacobi rotations applied to the columns of a working copy. Suitable
// for the small, well-conditioned matrices this repository manipulates.
func SVD(a *Dense) SVDResult {
	if a.Rows < a.Cols {
		// Decompose the transpose and swap the roles of U and V: a's
		// row-major data is already the transpose's column-major form.
		u, s, v := jacobiSVD(append([]float64(nil), a.Data...), a.Cols, a.Rows)
		return SVDResult{U: v, S: s, V: u}
	}
	u, s, v := jacobiSVD(a.transpose().Data, a.Rows, a.Cols)
	return SVDResult{U: u, S: s, V: v}
}

// jacobiSVD decomposes the m×n matrix (m ≥ n) held column-major in w,
// which it overwrites: Jacobi rotations orthogonalise w's columns in
// place, accumulating into the column-major v. Both live column-major
// because every inner loop walks a pair of columns.
func jacobiSVD(w []float64, m, n int) (u *Dense, sOut []float64, vOut *Dense) {
	v := make([]float64, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}

	const (
		maxSweeps = 60
		eps       = 1e-12
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			wp, vp := w[p*m:(p+1)*m], v[p*n:(p+1)*n]
			for q := p + 1; q < n; q++ {
				wq, vq := w[q*m:(q+1)*m], v[q*n:(q+1)*n]
				alpha, beta, gamma := 0.0, 0.0, 0.0
				for i, x := range wp {
					y := wq[i]
					alpha += x * x
					beta += y * y
					gamma += x * y
				}
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) || gamma == 0 {
					continue
				}
				off += math.Abs(gamma)
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i, x := range wp {
					y := wq[i]
					wp[i] = c*x - s*y
					wq[i] = s*x + c*y
				}
				for i, x := range vp {
					y := vq[i]
					vp[i] = c*x - s*y
					vq[i] = s*x + c*y
				}
			}
		}
		if off == 0 {
			break
		}
	}

	// Column norms of w are the singular values; normalised columns form U.
	type sv struct {
		val float64
		idx int
	}
	svs := make([]sv, n)
	for j := 0; j < n; j++ {
		s := 0.0
		for _, x := range w[j*m : (j+1)*m] {
			s += x * x
		}
		svs[j] = sv{math.Sqrt(s), j}
	}
	// Sort non-increasing (insertion sort: n is tiny).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && svs[j].val > svs[j-1].val; j-- {
			svs[j], svs[j-1] = svs[j-1], svs[j]
		}
	}

	u = NewDense(m, n)
	vOut = NewDense(n, n)
	sOut = make([]float64, n)
	for rank, e := range svs {
		sOut[rank] = e.val
		if e.val > eps {
			inv := 1 / e.val
			for i, x := range w[e.idx*m : (e.idx+1)*m] {
				u.Set(i, rank, x*inv)
			}
		}
		for i, x := range v[e.idx*n : (e.idx+1)*n] {
			vOut.Set(i, rank, x)
		}
	}
	return u, sOut, vOut
}
