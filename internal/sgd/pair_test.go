package sgd

import (
	"fmt"
	"math"
	"testing"

	"cuttlesys/internal/rng"
)

// lanePath runs f as a subtest named for the lane path the build and
// host take: "wide" where the AVX-512 kernel runs, "go" where the lanes
// train per surface.
func lanePath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	name := "go"
	if laneKernelOK {
		name = "wide"
	}
	t.Run(name, f)
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

// predBitsEqual compares two predictions of one matrix's observations
// bit for bit over the rows both render: a matrix on a block renders
// only its own rows.
func predBitsEqual(t *testing.T, name string, got, want *Prediction) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.Iters != want.Iters || got.Observed != want.Observed {
		t.Fatalf("%s: header mismatch: got %d×%d iters=%d obs=%d, want %d×%d iters=%d obs=%d",
			name, got.Rows, got.Cols, got.Iters, got.Observed, want.Rows, want.Cols, want.Iters, want.Observed)
	}
	for i := max(got.block, want.block); i < got.Rows; i++ {
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
		// The column window edges the wide schedule must meet (see
		// windowEdges), asserted where the kernels run.
		window []string
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
	// staircase clears the last group of four dense rows of 12 so they
	// end one column apart, rows 8 to 11 at columns 107 down to 104: the
	// wavefront then reaches the end of the group with the window still
	// shifting.
	staircase := func(a, b *Matrix) {
		for r := 9; r < 12; r++ {
			for j := 108 - (r - 8); j < 108; j++ {
				setCell(false, r, j, a, b)
			}
		}
	}
	windowCase := func(name string, seed uint64, extraB int, pa, pb Params, window []string, edit func(a, b *Matrix) int) pairCase {
		c := matched(name, seed, extraB, pa, pb, edit)
		c.window = window
		return c
	}

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
		windowCase("window: shift runs broken where the rows change", 58, 0, rt, rt,
			[]string{winRowBreak, winRowsShift}, whole),
		windowCase("window: shift run broken at a sparse running row", 59, 2, rt, rt,
			[]string{winSparse}, whole),
		windowCase("window: region ends mid-row inside a shift run", 60, 0, rt, rt,
			[]string{winEndShift, winMidRow}, func(a, b *Matrix) int {
				// Lane B lacks (11, 105): the prefix ends at row 11's
				// column 104, the staircase's last step.
				staircase(a, b)
				setCell(true, 11, 105, a)
				setCell(true, 11, 106, a, b)
				return obsBefore(a, 11) + 105
			}),
		windowCase("window: one-slot region", 61, 0, rt, rt,
			[]string{winOneSlot}, func(a, b *Matrix) int {
				setCell(false, 0, 1, b)
				return 1
			}),
		windowCase("window: padding cells inside a shifted run", 62, 0, rt, rt,
			[]string{winPadShift}, whole),
	}
	{
		// The region ends where the pair's matrices do, mid-shift: twelve
		// dense rows and nothing after them.
		a, b := matchedPair(63, 12, 108, 12, 0, 0)
		staircase(a, b)
		cases = append(cases, pairCase{name: "window: region ends inside a shift run", a: a, b: b, pa: rt, pb: rt,
			prefix: a.knownCount(), window: []string{winEndShift}})
	}
	{
		// A warm lane beside a cold one with the same sweep count: the
		// two share the wide kernel, warm factors in one lane of every
		// window part and the SVD seed in the other.
		a, b := matchedPair(64, 24, 108, 12, 9, 0)
		_, facA, err := reconstructFactors(a, rt)
		if err != nil {
			t.Fatal(err)
		}
		wa := rt
		wa.Warm, wa.WarmIters = facA, rt.MaxIter
		cases = append(cases, pairCase{name: "window: warm lane beside a cold one", a: a, b: b, pa: wa, pb: rt,
			prefix: a.knownCount(), window: []string{winRowsShift, winRowBreak}})
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
				requireEdges(t, "pair", st, tc.window)
			}
			wantA := Reconstruct(tc.a, tc.pa)
			wantB := Reconstruct(tc.b, tc.pb)
			lanePath(t, func(t *testing.T) {
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
	lanePath(t, func(t *testing.T) {
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
	lanePath(t, func(t *testing.T) {
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

// TestLanePrefixBlockIndexBound checks the wide kernel's addressing
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
		lanePath(t, func(t *testing.T) {
			gotA, gotB := ReconstructPair(tc.a, tc.b, tc.p, tc.p)
			predBitsEqual(t, tc.name+": lane A", gotA, wantA)
			predBitsEqual(t, tc.name+": lane B", gotB, wantB)
		})
	}
}

// FuzzReconstructLanes reconstructs two or four lanes of a random shape
// — up to 40 × 40 at any density, with bias-frozen rows, warm lanes, a
// pair whose patterns diverge and, with flag 64, a shared block of the
// first 0 to all rows, all of them dense — and demands that every
// lane's prediction equal the per-surface Reconstruct of the same
// observations in a matrix without a block, bit for bit, on the lane
// path the host takes. One observation may be hostile (NaN, ±Inf,
// zero, negative, huge), in a block row too: nothing may panic, and
// where it is a NaN, whose payload IEEE 754 leaves to the operand
// order, a NaN prediction need only meet a NaN.
func FuzzReconstructLanes(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(40), uint8(255), uint8(0), uint8(0), 0.0)
	f.Add(uint64(2), uint8(24), uint8(36), uint8(160), uint8(4), uint8(0x0b), 1e300)
	f.Add(uint64(3), uint8(39), uint8(39), uint8(60), uint8(3), uint8(0x1f), math.NaN())
	f.Add(uint64(4), uint8(5), uint8(7), uint8(200), uint8(0), uint8(0x15), math.Inf(1))
	f.Add(uint64(5), uint8(16), uint8(20), uint8(230), uint8(2), uint8(0x19), -1.0)
	f.Add(uint64(6), uint8(24), uint8(36), uint8(40), uint8(0), uint8(0x4b), 1.7e308)
	f.Add(uint64(7), uint8(16), uint8(39), uint8(120), uint8(3), uint8(0x5f), math.NaN())
	f.Add(uint64(8), uint8(9), uint8(30), uint8(10), uint8(2), uint8(0x69), 0.0)
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols, density, minObs, flags uint8, hostile float64) {
		nr, nc := 1+int(rows)%40, 1+int(cols)%40
		lanes := 2 + 2*int(flags&1)
		r := rng.New(seed)
		p := Params{Factors: pairFactors, Reg: 0.03, MaxIter: 4, FactorMinObs: int(minObs % 8)}
		nb := 0 // block rows
		if flags&64 != 0 {
			nb = r.Intn(nr + 1)
		}
		ms := make([]*Matrix, lanes)
		for l := 0; l < lanes; l += 2 {
			// The runtime writes both surfaces of a pair at the same
			// cells.
			a, b := NewMatrix(nr, nc), NewMatrix(nr, nc)
			for i := range nr {
				for j := range nc {
					if i < nb || r.Intn(256) < int(density) {
						a.Observe(i, j, 0.1+3*r.Float64())
						b.Observe(i, j, 0.1+3*r.Float64())
					}
				}
			}
			ms[l], ms[l+1] = a, b
		}
		if flags&2 != 0 { // lane 1 flips one own cell: the pair diverges there
			switch i, j := r.Intn(nr), r.Intn(nc); {
			case i < nb: // a block row stays fully observed
			case ms[1].Known(i, j):
				ms[1].clear(i, j)
			default:
				ms[1].Observe(i, j, 1)
			}
		}
		if flags&4 != 0 {
			ms[0].Observe(r.Intn(nr), r.Intn(nc), hostile)
		}
		ps := make([]Params, lanes)
		for l := range ps {
			ps[l] = p
		}
		// Lane 0 warm with the cold lanes' sweep count, so it can share
		// their stream; the last lane warm with fewer, so it cannot.
		for _, w := range []struct {
			on          bool
			lane, iters int
		}{{flags&8 != 0, 0, p.MaxIter}, {flags&16 != 0, lanes - 1, 2}} {
			if !w.on {
				continue
			}
			if _, fac, err := reconstructFactors(ms[w.lane], p); err == nil {
				ps[w.lane].Warm, ps[w.lane].WarmIters = fac, w.iters
			}
		}
		want := make([]*Prediction, lanes)
		blk := make([]*Matrix, lanes)
		for l, m := range ms {
			want[l] = Reconstruct(m, ps[l])
			blk[l] = onBlock(m, nb)
		}
		nan := flags&4 != 0 && math.IsNaN(hostile)
		lanePath(t, func(t *testing.T) {
			got := make([]*Prediction, lanes)
			if lanes == 4 {
				quad, _ := ReconstructQuad([4]*Matrix(blk), [4]Params(ps), flags&32 != 0)
				copy(got, quad[:])
			} else {
				got[0], got[1] = ReconstructPair(blk[0], blk[1], ps[0], ps[1])
			}
			for l := range ms {
				name := fmt.Sprintf("lane %d", l)
				if !nan {
					predBitsEqual(t, name, got[l], want[l])
					continue
				}
				for c, g := range got[l].vals {
					w := want[l].vals[nb*nc+c]
					if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
						t.Fatalf("%s: cell %d = %v, want %v", name, c, g, w)
					}
				}
			}
		})
	})
}
