package sgd

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// onBlock rebuilds flat with its first nb rows, which must be fully
// observed, as a Block and the rest as the matrix's own rows: the same
// observations, the way the runtime holds its training rows.
func onBlock(flat *Matrix, nb int) *Matrix {
	rows := make([][]float64, nb)
	for i := range rows {
		rows[i] = make([]float64, flat.Cols)
		for j := range rows[i] {
			if !flat.Known(i, j) {
				panic(fmt.Sprintf("onBlock: row %d is not fully observed", i))
			}
			rows[i][j] = flat.At(i, j)
		}
	}
	m := NewBlock(flat.Cols, rows...).Matrix(flat.Rows)
	for i := nb; i < flat.Rows; i++ {
		for j := 0; j < flat.Cols; j++ {
			if flat.Known(i, j) {
				m.Observe(i, j, flat.At(i, j))
			}
		}
	}
	return m
}

// sameFactors fails unless both factor sets are nil or byte-identical.
func sameFactors(t *testing.T, name string, got, want *Factors) {
	t.Helper()
	if (got == nil) != (want == nil) || got != nil && got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: factors differ from the flat matrix's", name)
	}
}

// TestBlockMatchesFlatMatrix is the block's differential test: a matrix
// whose leading rows are a Block reconstructs every own row, and
// captures every factor, bit for bit as the same matrix built by
// NewMatrix and ObserveRow — through every entry point, cold and warm,
// with a warm start that overflows and a warm start on a block that
// renders non-finite, both redone cold; for blocks of no rows, some of
// the dense rows, all of them, and every row of the matrix.
func TestBlockMatchesFlatMatrix(t *testing.T) {
	cold := Params{Factors: 6, Reg: 0.03, MaxIter: 40}
	type lanes struct {
		name string
		nb   int // block rows, all of them dense in every lane
		flat [4]*Matrix
		warm [4]*Matrix // the matrices whose fits warm-start the lanes
	}
	var cases []lanes
	for _, nb := range []int{0, 5, 12} {
		ms := quadSurfaces(uint64(40 + nb))
		cases = append(cases, lanes{fmt.Sprintf("%d block rows", nb), nb, ms, ms})
	}
	// Every row a block row: nothing of its own to observe or render.
	allA, allB := matchedPair(61, 12, 108, 12, 0, 0)
	all := [4]*Matrix{allA, allB, allA, allB}
	cases = append(cases, lanes{"all rows block", 12, all, all})
	// A block cell whose log is finite but whose exp(log) overflows,
	// warm-started from the fit without it: one warm sweep stays finite
	// and only the block's rendering, which NewBlock checks, sends the
	// warm start back to the cold fit.
	coolA, coolB := matchedPair(62, 16, 108, 8, 5, 1)
	hotA, hotB := matchedPair(62, 16, 108, 8, 5, 1)
	hotA.Observe(3, 7, 1.7e308)
	if finite(math.Exp(math.Log(1.7e308))) {
		t.Fatal("exp(log(1.7e308)) is finite here; the non-finite block case needs a cell that renders +Inf")
	}
	cases = append(cases, lanes{"non-finite block", 8, [4]*Matrix{hotA, hotB, hotA, hotB}, [4]*Matrix{coolA, coolB, coolA, coolB}})

	lanePath(t, func(t *testing.T) {
		for _, tc := range cases {
			var blk [4]*Matrix
			for l, m := range tc.flat {
				blk[l] = onBlock(m, tc.nb)
			}
			starts := map[string]func(l int) Params{
				"cold": func(int) Params { return cold },
				"warm": func(l int) Params {
					_, fac, err := reconstructFactors(tc.warm[l], cold)
					if err != nil {
						t.Fatal(err)
					}
					p := cold
					p.Warm, p.WarmIters = fac, 1
					return p
				},
				"overflowing warm": func(l int) Params {
					p := cold
					p.Warm, p.WarmIters = overflowingFactors(tc.flat[l], cold), 7
					return p
				},
			}
			for _, start := range []string{"cold", "warm", "overflowing warm"} {
				var ps [4]Params
				var want [4]*Prediction
				var wantF [4]*Factors
				for l := range ps {
					ps[l] = starts[start](l)
					want[l], wantF[l] = reconstructFull(tc.flat[l], ps[l].withDefaults(), true)
				}
				t.Run(tc.name+"/"+start, func(t *testing.T) {
					if tc.name == "non-finite block" && start == "warm" {
						coldP, _ := reconstructFull(tc.flat[0], cold.withDefaults(), true)
						predBitsEqual(t, "the redo", want[0], coldP)
					}
					for l := range blk {
						name := fmt.Sprintf("Reconstruct lane %d", l)
						got, gotF := reconstructFull(blk[l], ps[l].withDefaults(), true)
						predBitsEqual(t, name, got, want[l])
						predBitsEqual(t, name, Reconstruct(blk[l], ps[l]), want[l])
						sameFactors(t, name, gotF, wantF[l])
					}
					a, b := ReconstructPair(blk[0], blk[1], ps[0], ps[1])
					predBitsEqual(t, "ReconstructPair A", a, want[0])
					predBitsEqual(t, "ReconstructPair B", b, want[1])
					a, b, fa, fb := ReconstructPairFactors(blk[0], blk[1], ps[0], ps[1])
					predBitsEqual(t, "ReconstructPairFactors A", a, want[0])
					predBitsEqual(t, "ReconstructPairFactors B", b, want[1])
					sameFactors(t, "ReconstructPairFactors A", fa, wantF[0])
					sameFactors(t, "ReconstructPairFactors B", fb, wantF[1])
					got, gotF := ReconstructQuad(blk, ps, true)
					for l := range got {
						name := fmt.Sprintf("ReconstructQuad lane %d", l)
						predBitsEqual(t, name, got[l], want[l])
						sameFactors(t, name, gotF[l], wantF[l])
					}
				})
			}
		}
	})
}

// TestBlockRowsReadOnly: a block row reads back its exact values as
// known entries, refuses Observe, and a prediction neither holds nor
// answers for it — At panics naming the block — while holding exactly
// (Rows − block rows) × Cols values.
func TestBlockRowsReadOnly(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {math.Pi, 5e-300, 0}}
	b := NewBlock(3, rows...)
	rows[0][0] = 99 // the block holds a copy, in one backing array
	if len(b.vals) != 6 || &b.Row(1)[0] != &b.vals[3] {
		t.Fatal("the block's rows are not one row-major array")
	}
	m := b.Matrix(4)
	for i, row := range [][]float64{{1, 2, 3}, {math.Pi, 5e-300, 0}} {
		for j, v := range row {
			if !m.Known(i, j) || math.Float64bits(m.At(i, j)) != math.Float64bits(v) {
				t.Fatalf("block (%d,%d) = %v known %v, want %v", i, j, m.At(i, j), m.Known(i, j), v)
			}
		}
	}
	if m.Known(2, 0) || m.knownCount() != 6 {
		t.Fatalf("own rows start empty: known(2,0) %v, %d known", m.Known(2, 0), m.knownCount())
	}
	if msg := panicMessage(func() { m.Observe(1, 2, 7) }); !strings.Contains(msg, "block") {
		t.Fatalf("Observe on a block row: panic %q, want one naming the block", msg)
	}
	m.Observe(3, 1, 4)
	pred := Reconstruct(m, Params{MaxIter: 5})
	if got, want := len(pred.vals), (m.Rows-b.Rows)*m.Cols; got != want {
		t.Fatalf("prediction holds %d values, want (%d − %d) × %d = %d", got, m.Rows, b.Rows, m.Cols, want)
	}
	if pred.Observed != 7 {
		t.Fatalf("Observed = %d, want the block's 6 and one own entry", pred.Observed)
	}
	msg := panicMessage(func() { pred.At(1, 0) })
	if !strings.HasPrefix(msg, "sgd: ") || !strings.Contains(msg, "block") {
		t.Fatalf("Prediction.At on a block row: panic %q, want an sgd panic naming the block", msg)
	}
	_ = pred.At(2, 0) // the first own row answers
	if msg := panicMessage(func() { b.Matrix(1) }); !strings.Contains(msg, "invalid matrix dimensions") {
		t.Fatalf("a matrix shorter than its block: panic %q", msg)
	}
}
