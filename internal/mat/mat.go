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
// by ~108 columns (resource configurations). The solver favours clarity.
// The Jacobi sweep, which sits on every decision's critical path, runs
// its column pairs as a wavefront of disjoint pairs: on AVX-512 hosts up
// to sixteen rotations per step in the lanes of one kernel
// (jacobi_amd64.s), elsewhere one at a time in Go, both bit for bit the
// serial row-cyclic sweep the tests keep as their oracle.
package mat

import (
	"fmt"
	"math"

	"cuttlesys/internal/cpuid"
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
// the first k columns of the thin decomposition's U, S and V. A tall
// (or square) a is decomposed in place, so its data is overwritten;
// only a wide one is transposed into a working copy. It calls
// yield(r, s, u, v) for r = 0 … min(k, a.Rows, a.Cols)−1 in order, with
// s the r-th singular value and u (a.Rows elements) and v (a.Cols) its
// left and right singular vectors, strided views into the working
// arrays.
func SVDTop(a *Dense, k int, yield func(r int, s float64, u, v Vector)) {
	wide := a.Rows < a.Cols
	var j jacobi
	if wide {
		j = rotate(a.transpose().Data, a.Cols, a.Rows)
	} else {
		j = rotate(a.Data, a.Rows, a.Cols)
	}
	for r, e := range j.order[:min(k, j.n)] {
		w, v := j.column(e.idx)
		normalise(w, e.val)
		if wide {
			yield(r, e.val, v, w)
		} else {
			yield(r, e.val, w, v)
		}
	}
}

// Vector is a strided view of one column of an element-major working
// array: element i at data[i*stride].
type Vector struct {
	data   []float64
	stride int
	n      int
}

// Len returns the number of elements.
func (x Vector) Len() int { return x.n }

// At returns element i.
func (x Vector) At(i int) float64 { return x.data[i*x.stride] }

// svdEps is the rotation threshold relative to the column norms, and
// the singular value at or below which normalise leaves w's column
// zero.
const svdEps = 1e-12

// jacobi is a one-sided Jacobi decomposition of an m×n matrix (m ≥ n):
// w holds the matrix with its columns orthogonalised, v the accumulated
// rotations (n×n), and order w's columns by non-increasing norm — the
// singular values. Both arrays are element-major (row-major): element i
// of every column is one contiguous run of n, so one wavefront step
// reaches all its pairs' elements i in two spans of that run.
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

// column returns views of column c of w and of v.
func (j jacobi) column(c int) (w, v Vector) {
	return Vector{j.w[c:], j.n, j.m}, Vector{j.v[c:], j.n, j.n}
}

// jacobiLanes selects rotateLanes, the AVX-512 executor of a wavefront
// step. It follows the CPU probe alone; tests flip it to run the Go
// executor on AVX-512 hosts too.
var jacobiLanes = cpuid.AVX512

// maxLanes is the most pairs one call of the lane kernel rotates: two
// halves of eight 512-bit lanes.
const maxLanes = 16

// rotate orthogonalises the columns of the m×n matrix held element-major
// in w, which it overwrites, and ranks them.
//
// It runs the row-cyclic sweep — pairs (p, q), p < q, p outer — as a
// wavefront: step s rotates every pair with p + q = s, which touch
// disjoint columns, and each column meets its pairs in row-cyclic order
// (their sums rise with the partner's index on both sides). A rotation
// reads and writes only its two columns, so every pair sees the same
// columns and yields the same bits as in the serial loop (DESIGN.md
// §15). A sweep that rotates nothing ends the decomposition: the sum of
// |γ| over a sweep's rotations, the serial loop's stopping test, is zero
// exactly then.
func rotate(w []float64, m, n int) jacobi {
	v := make([]float64, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}

	const maxSweeps = 60
	// The Go executor's sums of the next step's first pair, carried
	// from the pass that rotated the step before's last pair.
	var first pairSums
	if n > 1 && !jacobiLanes {
		first = sumPair(w, n, 0, 1)
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for s := 1; s <= 2*n-3; s++ {
			if !jacobiLanes {
				var r bool
				first, r = rotateStep(w, v, m, n, s, first)
				rotated = rotated || r
				continue
			}
			// Pairs (p+j, q−j) for j < k: p the lowest left column, q
			// the highest right one.
			p, q := max(0, s-(n-1)), min(s, n-1)
			for k := (q - p + 1) / 2; k > 0; k -= maxLanes {
				rotated = rotateLanes(&w[0], &v[0], m, n, p, q, min(k, maxLanes)) || rotated
				p, q = p+maxLanes, q-maxLanes
			}
		}
		if !rotated {
			break
		}
	}

	// Column norms of w are the singular values.
	order := make([]singular, n)
	for j := 0; j < n; j++ {
		s := 0.0
		for i := j; i < m*n; i += n {
			x := w[i]
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

// pairSums holds a column pair's squared norms α and β and inner
// product γ, each accumulated in index order.
type pairSums struct{ alpha, beta, gamma float64 }

// rotateStep is the Go executor of wavefront step s of the m×n w and
// the n×n v, both element-major: its pairs one at a time, each pair's
// rotation of w summing the pair after it in the same pass — the
// step's next pair, which shares no column with it, or after the last
// the next step's first, (0, 1) after a sweep's last step, whose
// columns are then final. first holds the sums of the step's first
// pair; rotateStep returns those of the next step's, and whether any
// pair rotated. rotateLanes is its AVX-512 form, bit for bit.
func rotateStep(w, v []float64, m, n, s int, first pairSums) (next pairSums, rotated bool) {
	w = w[:m*n]
	p0, q0 := max(0, s-(n-1)), min(s, n-1)
	k := (q0 - p0 + 1) / 2
	next = first
	for j := range k {
		p, q := p0+j, q0-j
		np, nq := p+1, q-1
		if j+1 == k {
			np, nq = max(0, s+2-n), min(s+1, n-1)
			if s == 2*n-3 {
				np, nq = 0, 1
			}
		}
		c, sn, ok := rotation(next)
		if !ok {
			next = sumPair(w, n, np, nq)
			continue
		}
		rotated = true
		next = rotateSumPair(w, n, p, q, c, sn, np, nq)
		rotatePair(v, n, p, q, c, sn)
	}
	return next, rotated
}

// sumPair returns the sums of columns p < q of the element-major a, n
// columns wide.
func sumPair(a []float64, n, p, q int) (r pairSums) {
	y := a[q:]
	x := a[p:][:len(y)]
	for i := 0; i < len(x); i += n {
		xi, yi := x[i], y[i]
		r.alpha += xi * xi
		r.beta += yi * yi
		r.gamma += xi * yi
	}
	return r
}

// rotatePair rotates columns p < q of the element-major a, n columns
// wide, by (c, s).
func rotatePair(a []float64, n, p, q int, c, s float64) {
	y := a[q:]
	x := a[p:][:len(y)]
	for i := 0; i < len(x); i += n {
		xi, yi := x[i], y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}

// rotateSumPair rotates columns p < q of the element-major a, n columns
// wide, by (c, s), and returns the sums of columns p2 < q2 from the same
// pass, read after the row's rotation.
func rotateSumPair(a []float64, n, p, q int, c, s float64, p2, q2 int) (r pairSums) {
	l := len(a) - max(q, q2)
	x, y := a[p:][:l], a[q:][:l]
	x2, y2 := a[p2:][:l], a[q2:][:l]
	for i := 0; i < len(x); i += n {
		xi, yi := x[i], y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
		xi, yi = x2[i], y2[i]
		r.alpha += xi * xi
		r.beta += yi * yi
		r.gamma += xi * yi
	}
	return r
}

// rotation returns the Jacobi rotation (c, s) that zeroes the inner
// product γ of two columns with squared norms α and β, or ok false when
// they are already orthogonal to svdEps.
func rotation(sums pairSums) (c, s float64, ok bool) {
	alpha, beta, gamma := sums.alpha, sums.beta, sums.gamma
	if math.Abs(gamma) <= svdEps*math.Sqrt(alpha*beta) || gamma == 0 {
		return 0, 0, false
	}
	zeta := (beta - alpha) / (2 * gamma)
	t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
	c = 1 / math.Sqrt(1+t*t)
	return c, c * t, true
}

// normalise scales a column of w, whose norm is s, to unit length in
// place — the left singular vector — or zeroes it unless s > svdEps.
func normalise(w Vector, s float64) {
	inv := 1 / s
	for i := range w.n {
		if x := &w.data[i*w.stride]; s > svdEps {
			*x *= inv
		} else {
			*x = 0
		}
	}
}
