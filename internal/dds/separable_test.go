package dds

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"cuttlesys/internal/rng"
)

// testSeparable builds a small synthetic score table resembling the
// CuttleSys batch objective: K=4 accumulators with a nonlinear Finish.
func testSeparable(seed uint64, dims, configs int) *SeparableObjective {
	r := rng.New(seed)
	const k = 4
	terms := make([][]float64, dims)
	for d := range terms {
		row := make([]float64, configs*k)
		for i := range row {
			row[i] = r.Float64()*4 - 2
		}
		terms[d] = row
	}
	base := []float64{0, 10 * r.Float64(), r.Float64(), float64(r.Intn(3))}
	nd := float64(dims)
	return &SeparableObjective{
		K:     k,
		Base:  base,
		Terms: terms,
		Finish: func(acc []float64) float64 {
			obj := math.Exp(acc[0] / nd)
			if over := acc[1] - 5; over > 0 {
				obj -= 2 * over
			}
			if over := acc[2] + acc[3] - 3; over > 0 {
				obj -= 2 * over
			}
			return obj
		},
	}
}

// TestSeparableMatchesPlainSearch is the engine-level equivalence
// contract: SearchSeparable must return the Result a search over the
// plain adapter closure returns — same Best, same BestVal bits, same
// Evals, same Points — across seeds, dims and worker counts, because
// the incremental evaluation reproduces the full evaluation's float
// additions exactly. The plain-closure search is SearchReference; with
// one worker it records points in a fixed order, so they must match in
// order, and with more its append order follows goroutine
// interleaving, so they must match as a multiset.
func TestSeparableMatchesPlainSearch(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		for seed := uint64(1); seed <= 6; seed++ {
			sep := testSeparable(seed*977, 26, 108)
			p := Params{
				Dims: 26, NumConfigs: 108, MaxIter: 12,
				InitialPoints: 20, Workers: workers, Seed: seed, Record: true,
			}
			ref := SearchReference(sep.Func(), p)
			fast := SearchSeparable(sep, p)
			if !reflect.DeepEqual(ref.Best, fast.Best) {
				t.Fatalf("w=%d seed=%d: Best differs:\nref  %v\nfast %v", workers, seed, ref.Best, fast.Best)
			}
			if math.Float64bits(ref.BestVal) != math.Float64bits(fast.BestVal) {
				t.Fatalf("w=%d seed=%d: BestVal bits differ: %x vs %x",
					workers, seed, math.Float64bits(ref.BestVal), math.Float64bits(fast.BestVal))
			}
			if ref.Evals != fast.Evals {
				t.Fatalf("w=%d seed=%d: Evals %d vs %d", workers, seed, ref.Evals, fast.Evals)
			}
			if len(ref.Points) != len(fast.Points) {
				t.Fatalf("w=%d seed=%d: %d vs %d points", workers, seed, len(ref.Points), len(fast.Points))
			}
			if workers == 1 {
				for i := range ref.Points {
					if !reflect.DeepEqual(ref.Points[i].X, fast.Points[i].X) ||
						math.Float64bits(ref.Points[i].Val) != math.Float64bits(fast.Points[i].Val) {
						t.Fatalf("w=%d seed=%d: point %d differs", workers, seed, i)
					}
				}
			} else if !reflect.DeepEqual(pointCounts(ref.Points), pointCounts(fast.Points)) {
				t.Fatalf("w=%d seed=%d: evaluated point multisets differ", workers, seed)
			}
			if fast.DimsScored > ref.DimsScored {
				t.Fatalf("w=%d seed=%d: incremental path scored more dims (%d) than full (%d)",
					workers, seed, fast.DimsScored, ref.DimsScored)
			}
			if ref.DimsScored != ref.Evals*p.Dims {
				t.Fatalf("full path DimsScored %d, want Evals*Dims %d", ref.DimsScored, ref.Evals*p.Dims)
			}
		}
	}
}

// TestSeparableEvalMatchesFunc pins the two full-evaluation forms to
// each other on random vectors.
func TestSeparableEvalMatchesFunc(t *testing.T) {
	sep := testSeparable(42, 10, 17)
	f := sep.Func()
	r := rng.New(7)
	x := make([]int, 10)
	for trial := 0; trial < 200; trial++ {
		for d := range x {
			x[d] = r.Intn(17)
		}
		a, b := sep.Eval(x), f(x)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("Eval %v != Func %v on %v", a, b, x)
		}
	}
}

// TestSeparableIncrementalSavesWork checks the point of the fast path:
// with many iterations the shrinking perturbation subset must let the
// incremental evaluator skip a substantial share of dimension scores.
func TestSeparableIncrementalSavesWork(t *testing.T) {
	sep := testSeparable(3, 26, 108)
	p := Params{Dims: 26, NumConfigs: 108, Workers: 8, Seed: 5}
	res := SearchSeparable(sep, p)
	full := res.Evals * p.Dims
	if res.DimsScored >= full {
		t.Fatalf("incremental path scored %d of %d dims — saved nothing", res.DimsScored, full)
	}
	if frac := float64(res.DimsScored) / float64(full); frac > 0.9 {
		t.Errorf("incremental path scored %.0f%% of dims; expected meaningful savings", frac*100)
	}
}

// TestRecordOrderDeterministicAcrossGOMAXPROCS is the satellite
// regression test: Result.Points must come back in (iteration, worker,
// point) order however the goroutines interleave.
func TestRecordOrderDeterministicAcrossGOMAXPROCS(t *testing.T) {
	obj := separable1(12, 20, func(_, j int) float64 { return -math.Abs(float64(j) - 7) })
	p := Params{
		Dims: 12, NumConfigs: 20, MaxIter: 10,
		InitialPoints: 15, Workers: 6, Seed: 11, Record: true,
	}
	run := func() Result { return SearchSeparable(obj, p) }

	narrowProcs := runtime.GOMAXPROCS(1)
	narrow := run()
	runtime.GOMAXPROCS(8)
	wide := run()
	runtime.GOMAXPROCS(narrowProcs)

	if !reflect.DeepEqual(narrow, wide) {
		t.Fatal("Result differs between GOMAXPROCS=1 and GOMAXPROCS=8")
	}
	again := run()
	if !reflect.DeepEqual(narrow, again) {
		t.Fatal("Result differs run to run at the same GOMAXPROCS")
	}
}

// TestPerturbNonFiniteScale is the satellite guard test: rw·n·Norm()
// draws that overflow to ±Inf (or a NaN scale) must terminate and
// return an in-range configuration, consuming exactly one variate.
func TestPerturbNonFiniteScale(t *testing.T) {
	for _, rw := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e308, 1e305, -1e305} {
		r := rng.New(99)
		for trial := 0; trial < 100; trial++ {
			got := perturb(r, 13, rw, 108)
			if got < 0 || got >= 108 {
				t.Fatalf("rw=%v: perturb returned %d, out of [0,108)", rw, got)
			}
		}
	}
	// The finite path must consume the same single Norm draw as the
	// guarded path, so seeds stay aligned whatever rw is.
	a, b := rng.New(4), rng.New(4)
	perturb(a, 5, 0.3, 108)
	perturb(b, 5, math.Inf(1), 108)
	if x, y := a.Uint64(), b.Uint64(); x != y {
		t.Fatalf("guard path consumed a different number of draws: next %x vs %x", x, y)
	}
}

// TestSeparableValidate exercises the table-layout panics.
func TestSeparableValidate(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	p := Params{Dims: 3, NumConfigs: 4}
	good := testSeparable(1, 3, 4)
	expectPanic("bad K", func() {
		SearchSeparable(&SeparableObjective{K: 0}, p)
	})
	expectPanic("short base", func() {
		SearchSeparable(&SeparableObjective{K: 4, Base: []float64{0}, Terms: good.Terms, Finish: good.Finish}, p)
	})
	expectPanic("nil finish", func() {
		SearchSeparable(&SeparableObjective{K: 4, Base: good.Base, Terms: good.Terms}, p)
	})
	expectPanic("missing dim", func() {
		SearchSeparable(&SeparableObjective{K: 4, Base: good.Base, Terms: good.Terms[:2], Finish: good.Finish}, p)
	})
	expectPanic("short row", func() {
		bad := [][]float64{good.Terms[0], good.Terms[1], good.Terms[2][:4]}
		SearchSeparable(&SeparableObjective{K: 4, Base: good.Base, Terms: bad, Finish: good.Finish}, p)
	})
}

// TestSeparableEvalPathZeroAllocs asserts the acceptance criterion
// directly: once a worker context exists, incremental evaluation and
// rebasing allocate nothing.
func TestSeparableEvalPathZeroAllocs(t *testing.T) {
	sep := testSeparable(8, 26, 108)
	w := newSepWorker(sep, 26)
	parent := make([]int, 26)
	cand := make([]int, 26)
	for d := range parent {
		parent[d] = d % 108
		cand[d] = (d * 3) % 108
	}
	w.rebase(parent)
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		sink += w.eval(cand, 13)
		w.rebase(parent)
	}); n != 0 {
		t.Fatalf("incremental eval path allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sink += sep.Eval(cand)
	}); n != 0 {
		t.Fatalf("Eval allocates %.1f per op, want 0", n)
	}
	_ = sink
}

// BenchmarkDDSIncremental contrasts the reference engine (full
// closure evaluation) with the incremental separable path at the
// paper's operating point (Dims=26, 108 configs, 8 workers).
func BenchmarkDDSIncremental(b *testing.B) {
	sep := testSeparable(1, 26, 108)
	p := Params{Dims: 26, NumConfigs: 108, Workers: 8, Seed: 1}
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			SearchReference(sep.Func(), p)
		}
	})
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			SearchSeparable(sep, p)
		}
	})
}
