package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"cuttlesys/internal/rng"
)

// executors runs f as one subtest per Jacobi executor the host can
// take: "lanes" (the AVX-512 kernel), then "go" (sweepRows).
func executors(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	type executor struct {
		name  string
		lanes bool
	}
	ex := []executor{{"go", false}}
	if jacobiLanes {
		ex = append([]executor{{"lanes", true}}, ex...)
	}
	for _, e := range ex {
		t.Run(e.name, func(t *testing.T) {
			defer func(prev bool) { jacobiLanes = prev }(jacobiLanes)
			jacobiLanes = e.lanes
			f(t)
		})
	}
}

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
		// Decompose the transpose and swap the roles of U and V.
		u, s, v := rotate(a.transpose().Data, a.Cols, a.Rows).thin()
		return SVDResult{U: v, S: s, V: u}
	}
	u, s, v := rotate(a.clone().Data, a.Rows, a.Cols).thin()
	return SVDResult{U: u, S: s, V: v}
}

// thin copies the ranked decomposition out as SVD's m×n U, singular
// values and n×n V.
func (j jacobi) thin() (u *Dense, s []float64, v *Dense) {
	u, v, s = NewDense(j.m, j.n), NewDense(j.n, j.n), make([]float64, j.n)
	for r, e := range j.order {
		s[r] = e.val
		w, vc := j.column(e.idx)
		normalise(w, e.val)
		for i := range w.Len() {
			u.Set(i, r, w.At(i))
		}
		for i := range vc.Len() {
			v.Set(i, r, vc.At(i))
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
	j := rotateRowMajor(a.clone())
	w, v := &Dense{Rows: m, Cols: n, Data: j.w}, &Dense{Rows: n, Cols: n, Data: j.v}

	// Normalised columns of w form U.
	u := NewDense(m, n)
	vOut := NewDense(n, n)
	sOut := make([]float64, n)
	for rank, e := range j.order {
		sOut[rank] = e.val
		if e.val > svdEps {
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

// rotateRowMajor is svdRowMajor's sweep: it orthogonalises the columns
// of the tall w, which it overwrites, one row-cyclic pair at a time
// through At/Set, accumulating the rotations into v, and ranks the
// columns by norm. A row-major m×n matrix is rotate's element-major
// layout, so its w, v and ranking compare with rotate's directly.
func rotateRowMajor(w *Dense) jacobi {
	m, n := w.Rows, w.Cols
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

	// Column norms of w are the singular values.
	order := make([]singular, n)
	for j := 0; j < n; j++ {
		s := 0.0
		for i := 0; i < m; i++ {
			s += w.At(i, j) * w.At(i, j)
		}
		order[j] = singular{math.Sqrt(s), j}
	}
	// Sort non-increasing (insertion sort: n is tiny).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && order[j].val > order[j-1].val; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return jacobi{w: w.Data, v: v.Data, m: m, n: n, order: order}
}

// TestSVDMatchesRowMajorOracle pins the SVD to the row-major loop it
// replaced, bit for bit, on both Jacobi executors: the shapes svdInit
// decomposed before it wrote the tall form (dense rows × 108
// configurations, wide; 32 rows fill both halves of the widest step),
// a square one, and tall and wide matrices of n columns whose widest
// step is no pair (n = 1), one lane (2), four (8, 9), a full half (17),
// a half and a lane (18) or a second kernel call (34).
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
	shapes := [][2]int{{12, 108}, {16, 108}, {32, 108}, {108, 20}, {5, 5}}
	for _, n := range []int{1, 2, 8, 9, 17, 18, 34} {
		shapes = append(shapes, [2]int{108, n}, [2]int{n, 40})
	}
	r := rng.New(23)
	for _, dims := range shapes {
		a := NewDense(dims[0], dims[1])
		for i := range a.Data {
			a.Data[i] = r.Norm()
		}
		orig := a.clone()
		want := svdRowMajor(a)
		t.Run(fmt.Sprintf("%dx%d", dims[0], dims[1]), func(t *testing.T) {
			executors(t, func(t *testing.T) {
				got := SVD(a)
				bitsEqual(t, "input", a.Data, orig.Data)
				if got.U.Rows != want.U.Rows || got.U.Cols != want.U.Cols || got.V.Rows != want.V.Rows || got.V.Cols != want.V.Cols {
					t.Fatalf("shapes U %dx%d V %dx%d, oracle U %dx%d V %dx%d",
						got.U.Rows, got.U.Cols, got.V.Rows, got.V.Cols, want.U.Rows, want.U.Cols, want.V.Rows, want.V.Cols)
				}
				bitsEqual(t, "U", got.U.Data, want.U.Data)
				bitsEqual(t, "S", got.S, want.S)
				bitsEqual(t, "V", got.V.Data, want.V.Data)
			})
		})
	}
}

// TestSVDTopMatchesSVD pins SVDTop's triplets to the leading columns of
// SVD's U, S and V, bit for bit, on the tall shapes it decomposes in
// place (the seed's 108 configurations × dense rows among them), the
// transposed wide ones, a square one, and a rank-deficient input whose
// trailing left singular vectors are zero; k above the rank yields only
// min(rows, cols) triplets.
func TestSVDTopMatchesSVD(t *testing.T) {
	r := rng.New(31)
	for _, tc := range []struct{ rows, cols, k int }{
		{12, 108, 6}, {32, 108, 6}, {30, 27, 6}, {108, 20, 3}, {5, 5, 8}, {4, 9, 6}, {108, 14, 6},
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
			executors(t, func(t *testing.T) {
				n := 0
				SVDTop(a.clone(), tc.k, func(rank int, s float64, u, v Vector) {
					if rank != n || u.Len() != tc.rows || v.Len() != tc.cols {
						t.Fatalf("triplet %d: rank %d, |u| %d, |v| %d", n, rank, u.Len(), v.Len())
					}
					n++
					if math.Float64bits(s) != math.Float64bits(want.S[rank]) {
						t.Fatalf("S[%d] = %v, SVD %v", rank, s, want.S[rank])
					}
					for i := range u.Len() {
						if math.Float64bits(u.At(i)) != math.Float64bits(want.U.At(i, rank)) {
							t.Fatalf("U(%d,%d) = %v, SVD %v", i, rank, u.At(i), want.U.At(i, rank))
						}
					}
					for j := range v.Len() {
						if math.Float64bits(v.At(j)) != math.Float64bits(want.V.At(j, rank)) {
							t.Fatalf("V(%d,%d) = %v, SVD %v", j, rank, v.At(j), want.V.At(j, rank))
						}
					}
				})
				if wantN := min(tc.k, tc.rows, tc.cols); n != wantN {
					t.Fatalf("%d triplets, want %d", n, wantN)
				}
			})
		})
	}
}

// matchSerial rotates a copy of the element-major w with rotate, on the
// executor jacobiLanes picks, and returns a description of the first
// difference from want, rotateRowMajor's result on w, in w, v or the
// ranking, or "" if there is none.
func matchSerial(w []float64, want jacobi) string {
	m, n := want.m, want.n
	got := rotate(append([]float64(nil), w...), m, n)
	for _, a := range []struct {
		name      string
		got, want []float64
	}{{"w", got.w, want.w}, {"v", got.v, want.v}} {
		for i := range a.want {
			if math.Float64bits(a.got[i]) != math.Float64bits(a.want[i]) {
				return fmt.Sprintf("%s(%d,%d) = %v, serial %v", a.name, i/n, i%n, a.got[i], a.want[i])
			}
		}
	}
	for k := range want.order {
		if got.order[k].idx != want.order[k].idx || math.Float64bits(got.order[k].val) != math.Float64bits(want.order[k].val) {
			return fmt.Sprintf("rank %d is column %d (%v), serial %d (%v)", k,
				got.order[k].idx, got.order[k].val, want.order[k].idx, want.order[k].val)
		}
	}
	return ""
}

// TestRotateLanesMatchSerial pins both executors to the serial loop,
// rotateRowMajor, on 400 random matrices each — tall, square and the
// seed's shapes, n up to 36 (three kernel calls on the widest steps),
// some with duplicated, zero or nearly parallel (near rank one)
// columns: w, v and the ranking must be bit-identical.
func TestRotateLanesMatchSerial(t *testing.T) {
	executors(t, func(t *testing.T) {
		r := rng.New(41)
		for trial := 0; trial < 400; trial++ {
			n := 1 + r.Intn(36)
			m := n + r.Intn(24)
			if trial%10 == 0 {
				m, n = 108, 12+r.Intn(21) // the seed's shape
			}
			w := make([]float64, m*n)
			for i := range w {
				w[i] = r.Norm()
			}
			col := func(j int, f func(i int, x *float64)) {
				for i := 0; i < m; i++ {
					f(i, &w[i*n+j])
				}
			}
			switch trial % 4 {
			case 1: // a duplicated column and a zero one
				if n > 2 {
					col(n-1, func(i int, x *float64) { *x = w[i*n] })
					col(1, func(_ int, x *float64) { *x = 0 })
				}
			case 2: // near rank one: every column a scaled copy of the first plus noise
				for j := 1; j < n; j++ {
					s := r.Norm()
					col(j, func(i int, x *float64) { *x = s*w[i*n] + 1e-9*r.Norm() })
				}
			case 3: // all zero but one column
				clear(w)
				col(n/2, func(_ int, x *float64) { *x = r.Norm() })
			}
			want := rotateRowMajor(&Dense{Rows: m, Cols: n, Data: append([]float64(nil), w...)})
			if diff := matchSerial(w, want); diff != "" {
				t.Fatalf("trial %d (%dx%d, case %d): %s", trial, m, n, trial%4, diff)
			}
		}
	})
}

// FuzzSVDTop feeds SVDTop and rotate arbitrary tall matrices, n from 1
// to 40 and m from n to n+71, their cells the input's bytes read as
// float64s and repeated: finite ones must match the serial loop,
// rotateRowMajor, bit for bit on both executors, and none may panic,
// NaN, infinite and overflowing (ζ*ζ > MaxFloat64) cells included.
func FuzzSVDTop(f *testing.F) {
	cells := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	r := rng.New(47)
	norms := make([]float64, 97) // a prime: columns do not repeat
	for i := range norms {
		norms[i] = r.Norm()
	}
	for _, n := range []uint8{1, 2, 3, 8, 9, 16, 17, 18, 20, 32, 33, 34, 40} {
		f.Add(uint8(71), n-1, cells(norms...)) // n columns, n+71 rows
	}
	f.Add(uint8(0), uint8(6), cells(1, 2, 3, 1, 2, 3))                  // duplicate columns
	f.Add(uint8(4), uint8(5), cells(0, 0, 1, 0, 0))                     // zero columns
	f.Add(uint8(10), uint8(8), cells(1e300, 1e-300, -1e300, 3, 1e-300)) // ζ*ζ overflows
	f.Add(uint8(3), uint8(4), cells(math.NaN(), 1, 2, 3, 4))
	f.Add(uint8(3), uint8(4), cells(math.Inf(1), 1, math.Inf(-1), 2, 3))
	f.Add(uint8(1), uint8(2), cells(math.MaxFloat64, math.SmallestNonzeroFloat64, -0.0))
	f.Add(uint8(7), uint8(39), []byte{})
	f.Fuzz(func(t *testing.T, extra, cols uint8, data []byte) {
		n := 1 + int(cols)%40
		m := n + int(extra)%72
		w := make([]float64, m*n)
		finite := true
		if len(data) >= 8 {
			for i := range w {
				o := 8 * (i % (len(data) / 8))
				w[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[o:]))
				finite = finite && !math.IsNaN(w[i]) && !math.IsInf(w[i], 0)
			}
		}
		var want jacobi
		if finite {
			want = rotateRowMajor(&Dense{Rows: m, Cols: n, Data: append([]float64(nil), w...)})
		}
		defer func(prev bool) { jacobiLanes = prev }(jacobiLanes)
		for _, lanes := range []bool{jacobiLanes, false} {
			jacobiLanes = lanes
			if finite {
				if diff := matchSerial(w, want); diff != "" {
					t.Fatalf("%dx%d, lanes %v: %s", m, n, lanes, diff)
				}
			}
			for _, a := range []*Dense{
				{Rows: m, Cols: n, Data: append([]float64(nil), w...)},
				{Rows: n, Cols: m, Data: append([]float64(nil), w...)},
			} {
				SVDTop(a, 6, func(int, float64, Vector, Vector) {})
			}
		}
	})
}

// BenchmarkSVD times the decompositions the seed runs. At the shapes
// svdInit decomposes in place (108 configurations × 14, 20 and 28 dense
// rows, tall), it times rotate on each executor: "lanes" the AVX-512
// kernel (where the host has it), "go" sweepRows. At the wide shapes it
// times the full SVD, the in-place top-six SVDTop (its input refilled
// each iteration, since SVDTop overwrites it) and the row-major oracle.
func BenchmarkSVD(b *testing.B) {
	r := rng.New(29)
	for _, n := range []int{12, 14, 20, 28, 32} {
		a := make([]float64, 108*n)
		for i := range a {
			a[i] = r.Norm()
		}
		w := make([]float64, len(a))
		leg := func(name string, lanes bool) {
			b.Run(fmt.Sprintf("108x%d/%s", n, name), func(b *testing.B) {
				defer func(prev bool) { jacobiLanes = prev }(jacobiLanes)
				jacobiLanes = lanes
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(w, a)
					rotate(w, 108, n)
				}
			})
		}
		if jacobiLanes {
			leg("lanes", true)
		}
		leg("go", false)
	}
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
				SVDTop(w, 6, func(int, float64, Vector, Vector) {})
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
