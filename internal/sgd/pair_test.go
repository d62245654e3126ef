package sgd

import (
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"cuttlesys/internal/rng"
)

var noWide = flag.Bool("nowide", false, "run every test with the AVX-512 wide path off: the AVX path where the host has both")

func TestMain(m *testing.M) {
	flag.Parse()
	if *noWide {
		laneWide = false
	}
	os.Exit(m.Run())
}

// lanePaths runs f as one subtest per lane path the host can take:
// "wide" (the AVX-512 path, unless -nowide), then "avx" with the wide
// path forced off, or "go" where no kernel is built.
func lanePaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	type path struct {
		name string
		wide bool
	}
	paths := []path{{"avx", false}}
	if !laneKernelOK {
		paths[0].name = "go"
	}
	if laneWide {
		paths = append([]path{{"wide", true}}, paths...)
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			defer func(prev bool) { laneWide = prev }(laneWide)
			laneWide = p.wide
			f(t)
		})
	}
}

// pairMatrix builds a seeded observation matrix shaped like the
// runtime's surfaces: denseRows fully-observed leading rows, then
// sparse rows with sparseObs scattered observations each.
func pairMatrix(seed uint64, rows, cols, denseRows, sparseObs int) *Matrix {
	r := rng.New(seed)
	m := NewMatrix(rows, cols)
	for i := 0; i < denseRows; i++ {
		for j := 0; j < cols; j++ {
			m.Observe(i, j, 0.5+2*r.Float64())
		}
	}
	for i := denseRows; i < rows; i++ {
		for n := 0; n < sparseObs; n++ {
			m.Observe(i, r.Intn(cols), 0.5+2*r.Float64())
		}
	}
	return m
}

// matchedPair builds two matrices of the runtime's paired shape: lane
// B holds different values at exactly lane A's cells (the runtime
// writes both surfaces of a pair at the same configurations), plus
// extraB trailing rows of its own — the power matrix's service rows.
func matchedPair(seed uint64, rows, cols, denseRows, sparseObs, extraB int) (a, b *Matrix) {
	a = pairMatrix(seed, rows, cols, denseRows, sparseObs)
	r := rng.New(seed ^ 0xb)
	b = NewMatrix(rows+extraB, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if a.Known(i, j) {
				b.Observe(i, j, 1+5*r.Float64())
			}
		}
	}
	for i := rows; i < rows+extraB; i++ {
		for n := 0; n < sparseObs; n++ {
			b.Observe(i, r.Intn(cols), 1+5*r.Float64())
		}
	}
	return a, b
}

// rowObs returns the observed columns of row i, in sweep order.
func rowObs(m *Matrix, i int) []int {
	var cols []int
	for j := 0; j < m.Cols; j++ {
		if m.Known(i, j) {
			cols = append(cols, j)
		}
	}
	return cols
}

// obsBefore counts the observations in rows [0, row).
func obsBefore(m *Matrix, row int) int {
	n := 0
	for i := 0; i < row; i++ {
		n += len(rowObs(m, i))
	}
	return n
}

func predBitsEqual(t *testing.T, name string, got, want *Prediction) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.Iters != want.Iters || got.Observed != want.Observed {
		t.Fatalf("%s: header mismatch: got %d×%d iters=%d obs=%d, want %d×%d iters=%d obs=%d",
			name, got.Rows, got.Cols, got.Iters, got.Observed, want.Rows, want.Cols, want.Iters, want.Observed)
	}
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: (%d,%d) = %x, want %x (%v vs %v)",
					name, i, j, math.Float64bits(g), math.Float64bits(w), g, w)
			}
		}
	}
}

// TestReconstructPairBitIdentical drives the paired trainer across the
// shapes the runtime actually pairs — same-shape, different row
// counts, sparse tails, bias-frozen rows — and every way
// the common prefix can end, and demands exact float64 equality with
// two independent serial reconstructions.
func TestReconstructPairBitIdentical(t *testing.T) {
	type pairCase struct {
		name   string
		a, b   *Matrix
		pa, pb Params
		prefix int // expected lanePrefix where the kernel runs; 0 = not asserted
	}
	rt := Params{Factors: 6, Reg: 0.03, MaxIter: 50}
	frozen := rt
	frozen.FactorMinObs = 4
	// Matched-pattern pairs: 12 training rows, 12 running rows of up to
	// 9 cells. edit perturbs the pattern and returns the prefix length
	// the kernel must then cover.
	matched := func(name string, seed uint64, extraB int, pa, pb Params, edit func(a, b *Matrix) int) pairCase {
		a, b := matchedPair(seed, 24, 108, 12, 9, extraB)
		return pairCase{name: name, a: a, b: b, pa: pa, pb: pb, prefix: edit(a, b)}
	}
	whole := func(a, b *Matrix) int { return a.knownCount() }

	cases := []pairCase{
		matched("matched sparse running rows", 51, 0, rt, rt, whole),
		matched("lane B extra trailing rows", 52, 3, rt, rt, whole),
		matched("pattern diverges mid-row", 53, 3, rt, rt, func(a, b *Matrix) int {
			// Lane A lost its third sample of row 15: the prefix ends at
			// that cell and the rest of both lanes trains scalar.
			a.clear(15, rowObs(a, 15)[2])
			return obsBefore(a, 15) + 2
		}),
		matched("empty row between populated rows", 54, 0, rt, rt, func(a, b *Matrix) int {
			for _, j := range rowObs(a, 14) {
				a.clear(14, j)
				b.clear(14, j)
			}
			return a.knownCount()
		}),
		matched("bias-frozen row in the middle", 55, 2, frozen, frozen, func(a, b *Matrix) int {
			// Row 16 drops below FactorMinObs in both lanes: the kernel
			// stops there and rows 16.. train scalar, frozen or not.
			for _, j := range rowObs(a, 16)[2:] {
				a.clear(16, j)
				b.clear(16, j)
			}
			return obsBefore(a, 16)
		}),
		matched("row frozen in one lane only", 56, 0, frozen, rt, func(a, b *Matrix) int {
			for _, j := range rowObs(a, 20)[3:] {
				a.clear(20, j)
				b.clear(20, j)
			}
			return obsBefore(a, 20)
		}),
	}
	{
		// Warm-started lanes fine-tuning for WarmIters sweeps; frozen
		// rows keep their warm factors.
		a, b := matchedPair(57, 24, 108, 12, 9, 3)
		_, facA, errA := reconstructFactors(a, frozen)
		_, facB, errB := reconstructFactors(b, frozen)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		wa, wb := frozen, frozen
		wa.Warm, wa.WarmIters = facA, 20
		wb.Warm, wb.WarmIters = facB, 20
		for _, j := range rowObs(a, 22)[1:] {
			a.clear(22, j)
			b.clear(22, j)
		}
		cases = append(cases, pairCase{name: "warm-started lanes", a: a, b: b, pa: wa, pb: wb, prefix: obsBefore(a, 22)})
	}

	// Lanes drawn independently; the prefix is whatever it is.
	plain := func(name string, a, b *Matrix, pa, pb Params) pairCase {
		return pairCase{name: name, a: a, b: b, pa: pa, pb: pb}
	}
	iters := func(p Params, n int) Params { p.MaxIter = n; return p }
	short := Params{Factors: 6, MaxIter: 30}
	rank8 := Params{Factors: 8, MaxIter: 30}
	cases = append(cases,
		plain("same-shape dense+sparse", pairMatrix(1, 32, 108, 16, 6), pairMatrix(2, 32, 108, 16, 6), iters(rt, 60), iters(rt, 60)),
		plain("different row counts (thr vs pwr shape)", pairMatrix(3, 32, 108, 16, 4), pairMatrix(4, 35, 108, 16, 4), rt, rt),
		plain("bias-frozen sparse rows", pairMatrix(5, 20, 108, 12, 2), pairMatrix(6, 20, 108, 12, 2), iters(frozen, 40), iters(frozen, 40)),
		plain("54 columns in both lanes", pairMatrix(7, 16, 54, 8, 5), pairMatrix(8, 16, 54, 8, 5), iters(short, 40), iters(short, 40)),
		plain("unequal MaxIter falls back", pairMatrix(9, 16, 108, 8, 3), pairMatrix(10, 16, 108, 8, 3), short, iters(short, 45)),
		plain("non-kernel rank falls back", pairMatrix(11, 16, 108, 8, 3), pairMatrix(12, 16, 108, 8, 3), rank8, rank8),
		plain("different column counts fall back", pairMatrix(13, 16, 108, 8, 3), pairMatrix(14, 16, 54, 8, 3), short, short),
		plain("empty lane", pairMatrix(15, 16, 108, 8, 3), NewMatrix(16, 108), short, short),
		plain("no dense prefix falls back", pairMatrix(17, 16, 108, 0, 5), pairMatrix(18, 16, 108, 8, 5), short, short),
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.prefix > 0 && laneKernelOK {
				// The case must exercise the boundary it names.
				st := gatherLanes([]*Matrix{tc.a, tc.b}, []Params{tc.pa, tc.pb})
				if n := lanePrefix(st); n != tc.prefix {
					t.Fatalf("lanePrefix = %d, want %d", n, tc.prefix)
				}
			}
			wantA := Reconstruct(tc.a, tc.pa)
			wantB := Reconstruct(tc.b, tc.pb)
			lanePaths(t, func(t *testing.T) {
				gotA, gotB := ReconstructPair(tc.a, tc.b, tc.pa, tc.pb)
				predBitsEqual(t, "lane A", gotA, wantA)
				predBitsEqual(t, "lane B", gotB, wantB)
			})
		})
	}
}

// TestReconstructPairWarmStart pairs two warm-started lanes and a
// mixed warm/cold pair (unequal effective sweep counts → fallback).
func TestReconstructPairWarmStart(t *testing.T) {
	base := Params{Factors: 6, Reg: 0.03, MaxIter: 60}
	a := pairMatrix(21, 24, 108, 12, 4)
	b := pairMatrix(22, 24, 108, 12, 4)
	_, facA, err := reconstructFactors(a, base)
	if err != nil {
		t.Fatal(err)
	}
	_, facB, err := reconstructFactors(b, base)
	if err != nil {
		t.Fatal(err)
	}

	warmA, warmB := base, base
	warmA.Warm, warmA.WarmIters = facA, 20
	warmB.Warm, warmB.WarmIters = facB, 20
	wantA := Reconstruct(a, warmA)
	wantB := Reconstruct(b, warmB)
	wantCold := Reconstruct(b, base)
	lanePaths(t, func(t *testing.T) {
		gotA, gotB := ReconstructPair(a, b, warmA, warmB)
		predBitsEqual(t, "warm lane A", gotA, wantA)
		predBitsEqual(t, "warm lane B", gotB, wantB)

		// Warm lane beside a cold lane: effective MaxIter differs, so
		// the pair must fall back — and still match exactly.
		gotA, gotCold := ReconstructPair(a, b, warmA, base)
		predBitsEqual(t, "mixed warm lane", gotA, wantA)
		predBitsEqual(t, "mixed cold lane", gotCold, wantCold)
	})
}

// TestReconstructPairFactors checks the captured factor state is
// byte-identical to the per-surface capture path, and that cold
// models yield nil factors.
func TestReconstructPairFactors(t *testing.T) {
	p := Params{Factors: 6, Reg: 0.03, MaxIter: 50}
	a := pairMatrix(31, 32, 108, 16, 5)
	b := pairMatrix(32, 33, 108, 16, 5)
	_, wantFA, err := reconstructFactors(a, p)
	if err != nil {
		t.Fatal(err)
	}
	_, wantFB, err := reconstructFactors(b, p)
	if err != nil {
		t.Fatal(err)
	}
	lanePaths(t, func(t *testing.T) {
		gotA, gotB, gotFA, gotFB := ReconstructPairFactors(a, b, p, p)
		predBitsEqual(t, "lane A", gotA, Reconstruct(a, p))
		predBitsEqual(t, "lane B", gotB, Reconstruct(b, p))
		if gotFA.Fingerprint() != wantFA.Fingerprint() {
			t.Fatalf("lane A factors diverge: %x vs %x", gotFA.Fingerprint(), wantFA.Fingerprint())
		}
		if gotFB.Fingerprint() != wantFB.Fingerprint() {
			t.Fatalf("lane B factors diverge: %x vs %x", gotFB.Fingerprint(), wantFB.Fingerprint())
		}

		// Cold lane exports nil factors, mirroring reconstructFactors.
		_, _, _, coldF := ReconstructPairFactors(a, NewMatrix(16, 108), p, p)
		if coldF != nil {
			t.Fatalf("cold lane exported factors: %+v", coldF)
		}
	})
}

// BenchmarkReconstructPair measures the paired trainer against two
// independent reconstructions of the runtime's surface shape.
func BenchmarkReconstructPair(b *testing.B) {
	p := Params{Factors: 6, Reg: 0.03, MaxIter: 300}
	ma := pairMatrix(41, 32, 108, 16, 6)
	mb := pairMatrix(42, 33, 108, 16, 6)
	b.Run("paired", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ReconstructPair(ma, mb, p, p)
		}
	})
	b.Run("serial2x", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Reconstruct(ma, p)
			Reconstruct(mb, p)
		}
	})
}

// TestLanePrefixBlockIndexBound checks the slot kernels' addressing
// limits: lanes of 65 535 rows still share a stream, lanes of 65 536
// (whose spare row block would need index 65 536) train per surface;
// and likewise for entries, lanes of 65 535 entries share a stream
// while a pair with 65 536 in one lane (whose μ entry would need index
// 65 536) trains per surface — bit-identical either way.
func TestLanePrefixBlockIndexBound(t *testing.T) {
	p := Params{Factors: 6, MaxIter: 2}
	type boundCase struct {
		name   string
		a, b   *Matrix
		p      Params
		prefix int // lanePrefix below the bound
		over   bool
	}
	var cases []boundCase
	for _, rows := range []int{1<<16 - 1, 1 << 16} {
		a, b := NewMatrix(rows, 1), NewMatrix(rows, 1)
		for _, i := range []int{0, 1, rows - 1} {
			a.Observe(i, 0, 1+float64(i%7))
			b.Observe(i, 0, 2+float64(i%5))
		}
		cases = append(cases, boundCase{fmt.Sprintf("%d rows", rows), a, b, p, 3, rows > math.MaxUint16})
	}
	// The first 64 of 512 columns in each of 1 024 rows: every cell
	// observed in lane B, all but the last in lane A. No row is dense
	// enough for the SVD seed, which keeps the seed cheap.
	for _, entries := range []int{1<<16 - 1, 1 << 16} {
		a, b := NewMatrix(1024, 512), NewMatrix(1024, 512)
		for c := 0; c < 1<<16; c++ {
			if c < entries {
				a.Observe(c/64, c%64, 1+float64(c%7))
			}
			b.Observe(c/64, c%64, 2+float64(c%5))
		}
		if entries < 1<<16 {
			b.clear(1023, 63) // both lanes 65 535 entries
		}
		cases = append(cases, boundCase{fmt.Sprintf("%d entries", entries), a, b, p,
			1<<16 - 1, entries > math.MaxUint16})
	}
	for _, tc := range cases {
		if laneKernelOK {
			want := tc.prefix
			if tc.over {
				want = 0
			}
			if n := lanePrefix(gatherLanes([]*Matrix{tc.a, tc.b}, []Params{tc.p, tc.p})); n != want {
				t.Fatalf("%s: lanePrefix = %d, want %d", tc.name, n, want)
			}
		}
		wantA, wantB := Reconstruct(tc.a, tc.p), Reconstruct(tc.b, tc.p)
		lanePaths(t, func(t *testing.T) {
			gotA, gotB := ReconstructPair(tc.a, tc.b, tc.p, tc.p)
			predBitsEqual(t, tc.name+": lane A", gotA, wantA)
			predBitsEqual(t, tc.name+": lane B", gotB, wantB)
		})
	}
}
