// Package mat implements the small dense linear algebra kernel the
// repository needs: matrices, a partial-pivoting linear solver
// (used to fit Flicker's RBF surrogates), and a one-sided Jacobi SVD,
// SVDTop, which yields only the leading k singular triplets of a matrix
// it decomposes in place — the form that seeds the P/Q factors of the
// collaborative-filtering reconstruction (§V of the paper), which reads
// the top six triplets and nothing else. The full thin decomposition
// SVDTop is pinned against lives in the tests.
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

// SVDTop computes the leading k singular triplets of a — bit for bit
// the first k columns of the thin decomposition's U, S and V — without
// copying it out: a wide a is decomposed in place, so its data is
// overwritten, and only a tall one is transposed into a working copy.
// It calls yield(r, s, u, v) for r = 0 … min(k, a.Rows, a.Cols)−1 in
// order, with s the r-th singular value and u (length a.Rows) and v
// (length a.Cols) its left and right singular vectors, views into the
// working arrays.
func SVDTop(a *Dense, k int, yield func(r int, s float64, u, v []float64)) {
	wide := a.Rows < a.Cols
	var j jacobi
	if wide {
		j = rotate(a.Data, a.Cols, a.Rows)
	} else {
		j = rotate(a.transpose().Data, a.Rows, a.Cols)
	}
	for r, e := range j.order[:min(k, j.n)] {
		w, v := j.w[e.idx*j.m:(e.idx+1)*j.m], j.v[e.idx*j.n:(e.idx+1)*j.n]
		normalise(w, e.val)
		if wide {
			yield(r, e.val, v, w)
		} else {
			yield(r, e.val, w, v)
		}
	}
}

// svdEps is the rotation threshold relative to the column norms, and
// the singular value at or below which normalise leaves w's column
// zero.
const svdEps = 1e-12

// jacobi is a one-sided Jacobi decomposition of an m×n matrix (m ≥ n):
// w holds the matrix column-major with its columns orthogonalised, v
// the accumulated rotations (n×n, column-major), and order w's columns
// by non-increasing norm — the singular values. Both arrays are
// column-major because every inner loop walks a pair of columns.
type jacobi struct {
	w, v  []float64
	m, n  int
	order []singular
}

// singular is one singular value and the column of w and v it lives in.
type singular struct {
	val float64
	idx int
}

// rotate orthogonalises the columns of the m×n matrix held column-major
// in w, which it overwrites, and ranks them.
func rotate(w []float64, m, n int) jacobi {
	v := make([]float64, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}

	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			wp, vp := w[p*m:(p+1)*m], v[p*n:(p+1)*n]
			// alpha, beta and gamma are the sums of pair (p, q); next
			// reports that the previous rotation already summed them.
			var alpha, beta, gamma float64
			next := false
			for q := p + 1; q < n; q++ {
				wq, vq := w[q*m:(q+1)*m], v[q*n:(q+1)*n]
				if !next {
					alpha, beta, gamma = sums(wp, wq)
				}
				next = false
				if math.Abs(gamma) <= svdEps*math.Sqrt(alpha*beta) || gamma == 0 {
					continue
				}
				off += math.Abs(gamma)
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				if q+1 < n {
					// Rotate, and sum pair (p, q+1) over the rotated wp
					// in the same pass: the operands and order sums
					// would use.
					wr := w[(q+1)*m : (q+2)*m]
					wq, wr = wq[:len(wp)], wr[:len(wp)]
					alpha, beta, gamma = 0, 0, 0
					for i, x := range wp {
						y := wq[i]
						x2 := c*x - s*y
						wp[i] = x2
						wq[i] = s*x + c*y
						z := wr[i]
						alpha += x2 * x2
						beta += z * z
						gamma += x2 * z
					}
					next = true
				} else {
					for i, x := range wp {
						y := wq[i]
						wp[i] = c*x - s*y
						wq[i] = s*x + c*y
					}
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

	// Column norms of w are the singular values.
	order := make([]singular, n)
	for j := 0; j < n; j++ {
		s := 0.0
		for _, x := range w[j*m : (j+1)*m] {
			s += x * x
		}
		order[j] = singular{math.Sqrt(s), j}
	}
	// Sort non-increasing (insertion sort: n is tiny).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && order[j].val > order[j-1].val; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return jacobi{w: w, v: v, m: m, n: n, order: order}
}

// sums returns the squared norms of columns x and y and their dot
// product, each accumulated in index order.
func sums(x, y []float64) (alpha, beta, gamma float64) {
	y = y[:len(x)]
	for i, a := range x {
		b := y[i]
		alpha += a * a
		beta += b * b
		gamma += a * b
	}
	return alpha, beta, gamma
}

// normalise scales a column of w, whose norm is s, to unit length in
// place — the left singular vector — or zeroes it unless s > svdEps.
func normalise(w []float64, s float64) {
	if !(s > svdEps) {
		clear(w)
		return
	}
	inv := 1 / s
	for i, x := range w {
		w[i] = x * inv
	}
}
