package mat

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"cuttlesys/internal/rng"
)

func TestNewDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDense(0,1) did not panic")
		}
	}()
	NewDense(0, 1)
}

func TestAtSetRow(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	row := m.row(1)
	row[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("row must be a view, not a copy")
	}
}

func TestFromRows(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("fromRows layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged fromRows did not panic")
		}
	}()
	fromRows([][]float64{{1}, {1, 2}})
}

func TestTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose dims %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatal("transpose values wrong")
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := mul(a, b)
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	if frobeniusDiff(c, want) > 1e-12 {
		t.Fatalf("mul = %+v, want %+v", c, want)
	}
}

func TestMulIdentity(t *testing.T) {
	r := rng.New(1)
	a := NewDense(4, 4)
	id := NewDense(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
		for j := 0; j < 4; j++ {
			a.Set(i, j, r.Norm())
		}
	}
	if frobeniusDiff(mul(a, id), a) > 1e-12 {
		t.Fatal("A·I != A")
	}
	if frobeniusDiff(mul(id, a), a) > 1e-12 {
		t.Fatal("I·A != A")
	}
}

func TestMulVec(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	got := mulVec(a, []float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("mulVec = %v", got)
	}
}

func TestSolveKnown(t *testing.T) {
	a := fromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("Solve = %v, want %v", x, want)
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("singular system did not error")
	}
}

func TestSolveDoesNotMutate(t *testing.T) {
	a := fromRows([][]float64{{4, 1}, {1, 3}})
	b := []float64{1, 2}
	aCopy := a.clone()
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if frobeniusDiff(a, aCopy) != 0 {
		t.Fatal("Solve mutated A")
	}
	if b[0] != 1 || b[1] != 2 {
		t.Fatal("Solve mutated b")
	}
}

func TestSolveRandomResidual(t *testing.T) {
	r := rng.New(7)
	if err := quick.Check(func(seed uint64) bool {
		local := rng.New(seed)
		n := 3 + local.Intn(8)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, local.Norm())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonally dominant => nonsingular
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = local.Norm()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		res := mulVec(a, x)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	_ = r
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
// Jacobi rotations applied to the columns of a working copy. It is the
// full decomposition SVDTop is pinned against, bit for bit.
func SVD(a *Dense) SVDResult {
	if a.Rows < a.Cols {
		// Decompose the transpose and swap the roles of U and V: a's
		// row-major data is already the transpose's column-major form.
		u, s, v := rotate(append([]float64(nil), a.Data...), a.Cols, a.Rows).thin()
		return SVDResult{U: v, S: s, V: u}
	}
	u, s, v := rotate(a.transpose().Data, a.Rows, a.Cols).thin()
	return SVDResult{U: u, S: s, V: v}
}

// thin copies the ranked decomposition out as SVD's m×n U, singular
// values and n×n V.
func (j jacobi) thin() (u *Dense, s []float64, v *Dense) {
	u, v, s = NewDense(j.m, j.n), NewDense(j.n, j.n), make([]float64, j.n)
	for r, e := range j.order {
		s[r] = e.val
		w := j.w[e.idx*j.m : (e.idx+1)*j.m]
		normalise(w, e.val)
		for i, x := range w {
			u.Set(i, r, x)
		}
		for i, x := range j.v[e.idx*j.n : (e.idx+1)*j.n] {
			v.Set(i, r, x)
		}
	}
	return u, s, v
}

func svdReconstruct(r SVDResult) *Dense {
	k := len(r.S)
	us := r.U.clone()
	for i := 0; i < us.Rows; i++ {
		for j := 0; j < k; j++ {
			us.Set(i, j, us.At(i, j)*r.S[j])
		}
	}
	return mul(us, r.V.transpose())
}

func TestSVDReconstruction(t *testing.T) {
	r := rng.New(13)
	for _, dims := range [][2]int{{5, 3}, {3, 5}, {6, 6}, {10, 4}} {
		m, n := dims[0], dims[1]
		a := NewDense(m, n)
		for i := range a.Data {
			a.Data[i] = r.Norm()
		}
		res := SVD(a)
		if diff := frobeniusDiff(svdReconstruct(res), a); diff > 1e-8 {
			t.Fatalf("SVD %dx%d reconstruction error %v", m, n, diff)
		}
		// Singular values non-increasing and non-negative.
		for i := range res.S {
			if res.S[i] < 0 {
				t.Fatalf("negative singular value %v", res.S[i])
			}
			if i > 0 && res.S[i] > res.S[i-1]+1e-12 {
				t.Fatalf("singular values not sorted: %v", res.S)
			}
		}
	}
}

func TestSVDOrthonormalU(t *testing.T) {
	r := rng.New(17)
	a := NewDense(8, 4)
	for i := range a.Data {
		a.Data[i] = r.Norm()
	}
	res := SVD(a)
	utu := mul(res.U.transpose(), res.U)
	for i := 0; i < utu.Rows; i++ {
		for j := 0; j < utu.Cols; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(utu.At(i, j)-want) > 1e-8 {
				t.Fatalf("UᵀU not identity at (%d,%d): %v", i, j, utu.At(i, j))
			}
		}
	}
}

func TestSVDLowRank(t *testing.T) {
	// Build an exactly rank-2 matrix and check the trailing singular
	// values vanish — the low-rank structure assumption behind the
	// collaborative-filtering reconstruction.
	r := rng.New(19)
	m, n, rank := 10, 6, 2
	u := NewDense(m, rank)
	v := NewDense(rank, n)
	for i := range u.Data {
		u.Data[i] = r.Norm()
	}
	for i := range v.Data {
		v.Data[i] = r.Norm()
	}
	a := mul(u, v)
	res := SVD(a)
	if res.S[0] <= 0 || res.S[1] <= 0 {
		t.Fatal("leading singular values should be positive")
	}
	for i := rank; i < len(res.S); i++ {
		if res.S[i] > 1e-8*res.S[0] {
			t.Fatalf("trailing singular value %d = %v, want ~0", i, res.S[i])
		}
	}
}

func TestFrobeniusDiffMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("frobeniusDiff mismatch did not panic")
		}
	}()
	frobeniusDiff(NewDense(2, 2), NewDense(2, 3))
}

// svdRowMajor is the Jacobi SVD as it was before the working copy went
// column-major: the same rotations in the same order through strided
// At/Set on row-major matrices. It is kept as the oracle SVD must match
// bit for bit.
func svdRowMajor(a *Dense) SVDResult {
	m, n := a.Rows, a.Cols
	if m < n {
		// Decompose the transpose and swap the roles of U and V.
		r := svdRowMajor(a.transpose())
		return SVDResult{U: r.V, S: r.S, V: r.U}
	}
	// w starts as a copy of a; Jacobi rotations orthogonalise its columns
	// in place, accumulating the rotations into v.
	w := a.clone()
	v := NewDense(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}

	const (
		maxSweeps = 60
		eps       = 1e-12
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				alpha, beta, gamma := 0.0, 0.0, 0.0
				for i := 0; i < m; i++ {
					wp, wq := w.At(i, p), w.At(i, q)
					alpha += wp * wp
					beta += wq * wq
					gamma += wp * wq
				}
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) || gamma == 0 {
					continue
				}
				off += math.Abs(gamma)
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					wp, wq := w.At(i, p), w.At(i, q)
					w.Set(i, p, c*wp-s*wq)
					w.Set(i, q, s*wp+c*wq)
				}
				for i := 0; i < n; i++ {
					vp, vq := v.At(i, p), v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
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
		for i := 0; i < m; i++ {
			s += w.At(i, j) * w.At(i, j)
		}
		svs[j] = sv{math.Sqrt(s), j}
	}
	// Sort non-increasing (insertion sort: n is tiny).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && svs[j].val > svs[j-1].val; j-- {
			svs[j], svs[j-1] = svs[j-1], svs[j]
		}
	}

	u := NewDense(m, n)
	vOut := NewDense(n, n)
	sOut := make([]float64, n)
	for rank, e := range svs {
		sOut[rank] = e.val
		if e.val > eps {
			inv := 1 / e.val
			for i := 0; i < m; i++ {
				u.Set(i, rank, w.At(i, e.idx)*inv)
			}
		}
		for i := 0; i < n; i++ {
			vOut.Set(i, rank, v.At(i, e.idx))
		}
	}
	return SVDResult{U: u, S: sOut, V: vOut}
}

// TestSVDMatchesRowMajorOracle pins the column-major SVD to the
// row-major loop it replaced, bit for bit, on the shapes svdInit
// decomposes (dense rows × 108 configurations, wide), a tall matrix
// and a square one.
func TestSVDMatchesRowMajorOracle(t *testing.T) {
	bitsEqual := func(t *testing.T, name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, oracle %v", name, i, got[i], want[i])
			}
		}
	}
	r := rng.New(23)
	for _, dims := range [][2]int{{12, 108}, {16, 108}, {32, 108}, {108, 20}, {5, 5}} {
		a := NewDense(dims[0], dims[1])
		for i := range a.Data {
			a.Data[i] = r.Norm()
		}
		orig := a.clone()
		got, want := SVD(a), svdRowMajor(a)
		t.Run(fmt.Sprintf("%dx%d", dims[0], dims[1]), func(t *testing.T) {
			bitsEqual(t, "input", a.Data, orig.Data)
			if got.U.Rows != want.U.Rows || got.U.Cols != want.U.Cols || got.V.Rows != want.V.Rows || got.V.Cols != want.V.Cols {
				t.Fatalf("shapes U %dx%d V %dx%d, oracle U %dx%d V %dx%d",
					got.U.Rows, got.U.Cols, got.V.Rows, got.V.Cols, want.U.Rows, want.U.Cols, want.V.Rows, want.V.Cols)
			}
			bitsEqual(t, "U", got.U.Data, want.U.Data)
			bitsEqual(t, "S", got.S, want.S)
			bitsEqual(t, "V", got.V.Data, want.V.Data)
		})
	}
}

// TestSVDTopMatchesSVD pins SVDTop's triplets to the leading columns of
// SVD's U, S and V, bit for bit, on the wide shapes it decomposes in
// place, the transposed tall and square ones, and a rank-deficient
// input whose trailing left singular vectors are zero; k above the
// rank yields only min(rows, cols) triplets.
func TestSVDTopMatchesSVD(t *testing.T) {
	r := rng.New(31)
	for _, tc := range []struct{ rows, cols, k int }{
		{12, 108, 6}, {32, 108, 6}, {30, 27, 6}, {108, 20, 3}, {5, 5, 8}, {4, 9, 6},
	} {
		a := NewDense(tc.rows, tc.cols)
		for i := range a.Data {
			a.Data[i] = r.Norm()
		}
		if tc.rows == 4 {
			copy(a.row(2), a.row(0)) // rank deficient: duplicated rows
			copy(a.row(3), a.row(1))
		}
		want := SVD(a)
		t.Run(fmt.Sprintf("%dx%d top %d", tc.rows, tc.cols, tc.k), func(t *testing.T) {
			n := 0
			SVDTop(a.clone(), tc.k, func(rank int, s float64, u, v []float64) {
				if rank != n || len(u) != tc.rows || len(v) != tc.cols {
					t.Fatalf("triplet %d: rank %d, |u| %d, |v| %d", n, rank, len(u), len(v))
				}
				n++
				if math.Float64bits(s) != math.Float64bits(want.S[rank]) {
					t.Fatalf("S[%d] = %v, SVD %v", rank, s, want.S[rank])
				}
				for i, x := range u {
					if math.Float64bits(x) != math.Float64bits(want.U.At(i, rank)) {
						t.Fatalf("U(%d,%d) = %v, SVD %v", i, rank, x, want.U.At(i, rank))
					}
				}
				for j, x := range v {
					if math.Float64bits(x) != math.Float64bits(want.V.At(j, rank)) {
						t.Fatalf("V(%d,%d) = %v, SVD %v", j, rank, x, want.V.At(j, rank))
					}
				}
			})
			if wantN := min(tc.k, tc.rows, tc.cols); n != wantN {
				t.Fatalf("%d triplets, want %d", n, wantN)
			}
		})
	}
}

// rotateUnfused is rotate as it was before each rotation summed the
// next pair: every pair's alpha, beta and gamma from a pass of their
// own. It is the oracle rotate must match bit for bit.
func rotateUnfused(w []float64, m, n int) jacobi {
	v := make([]float64, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}
	for sweep := 0; sweep < 60; sweep++ {
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
				if math.Abs(gamma) <= svdEps*math.Sqrt(alpha*beta) || gamma == 0 {
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
	order := make([]singular, n)
	for j := 0; j < n; j++ {
		s := 0.0
		for _, x := range w[j*m : (j+1)*m] {
			s += x * x
		}
		order[j] = singular{math.Sqrt(s), j}
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && order[j].val > order[j-1].val; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return jacobi{w: w, v: v, m: m, n: n, order: order}
}

// TestRotateMatchesUnfused pins rotate's fused rotate-and-sum pass to
// rotateUnfused on 400 random column-major matrices, tall, square and
// the seed's shapes, some with duplicated, zero or nearly parallel
// (near rank one) columns: w, v and the ranking must be bit-identical.
func TestRotateMatchesUnfused(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(16)
		m := n + r.Intn(24)
		if trial%10 == 0 {
			m, n = 108, 12+r.Intn(21) // the seed's shape, transposed
		}
		w := make([]float64, m*n)
		for i := range w {
			w[i] = r.Norm()
		}
		col := func(j int) []float64 { return w[j*m : (j+1)*m] }
		switch trial % 4 {
		case 1: // a duplicated column and a zero one
			if n > 2 {
				copy(col(n-1), col(0))
				clear(col(1))
			}
		case 2: // near rank one: every column a scaled copy of the first plus noise
			for j := 1; j < n; j++ {
				s := r.Norm()
				for i, x := range col(0) {
					col(j)[i] = s*x + 1e-9*r.Norm()
				}
			}
		case 3: // all zero but one column
			clear(w)
			for i := range col(n / 2) {
				col(n / 2)[i] = r.Norm()
			}
		}
		want := rotateUnfused(append([]float64(nil), w...), m, n)
		got := rotate(w, m, n)
		same := func(a, b []float64) bool {
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					return false
				}
			}
			return len(a) == len(b)
		}
		if !same(got.w, want.w) || !same(got.v, want.v) {
			t.Fatalf("trial %d (%dx%d, case %d): rotated w or v differs from the unfused loop", trial, m, n, trial%4)
		}
		for k := range want.order {
			if got.order[k].idx != want.order[k].idx || math.Float64bits(got.order[k].val) != math.Float64bits(want.order[k].val) {
				t.Fatalf("trial %d: rank %d is column %d (%v), unfused %d (%v)", trial, k,
					got.order[k].idx, got.order[k].val, want.order[k].idx, want.order[k].val)
			}
		}
	}
}

// BenchmarkSVD times the decompositions svdInit runs once the running
// rows turn dense: the full SVD, the row-major oracle, and the top-six
// in-place SVDTop the seed calls (its input refilled each iteration,
// since SVDTop overwrites it).
func BenchmarkSVD(b *testing.B) {
	r := rng.New(29)
	for _, rows := range []int{16, 32} {
		a := NewDense(rows, 108)
		for i := range a.Data {
			a.Data[i] = r.Norm()
		}
		b.Run(fmt.Sprintf("%dx108", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SVD(a)
			}
		})
		b.Run(fmt.Sprintf("%dx108-top6", rows), func(b *testing.B) {
			b.ReportAllocs()
			w := a.clone()
			for i := 0; i < b.N; i++ {
				copy(w.Data, a.Data)
				SVDTop(w, 6, func(int, float64, []float64, []float64) {})
			}
		})
		b.Run(fmt.Sprintf("%dx108-rowmajor", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				svdRowMajor(a)
			}
		})
	}
}

// fromRows builds a matrix from row slices, which must be non-empty and
// of equal length.
func fromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: fromRows with empty input")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.Cols {
			panic("mat: fromRows with ragged input")
		}
		copy(m.Data[i*m.Cols:], row)
	}
	return m
}

// mul returns a·b. It panics on a dimension mismatch.
func mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: mul dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		orow := out.row(i)
		for k, av := range a.row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.row(k) {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// mulVec returns a·x as a new vector. It panics on a dimension mismatch.
func mulVec(a *Dense, x []float64) []float64 {
	if a.Cols != len(x) {
		panic("mat: mulVec dimension mismatch")
	}
	out := make([]float64, a.Rows)
	for i := range out {
		s := 0.0
		for j, v := range a.row(i) {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// frobeniusDiff returns ‖a−b‖_F. It panics on a dimension mismatch.
func frobeniusDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: frobeniusDiff dimension mismatch")
	}
	s := 0.0
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		s += d * d
	}
	return math.Sqrt(s)
}
