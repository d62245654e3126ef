package ucp

import (
	"testing"
	"testing/quick"

	"cuttlesys/internal/rng"
	"cuttlesys/internal/workload"
)

func curveFor(p *workload.Profile) Curve {
	return Curve{
		MissRatio: p.MissRatio,
		Weight:    p.MemFrac * p.L1MissRate,
	}
}

func TestSumsToBudget(t *testing.T) {
	apps := workload.SPEC()[:8]
	curves := make([]Curve, len(apps))
	for i, a := range apps {
		curves[i] = curveFor(a)
	}
	alloc := Partition(nil, curves, 32, 1)
	sum := 0
	for i, w := range alloc {
		if w < 1 {
			t.Fatalf("app %d below minimum: %d", i, w)
		}
		sum += w
	}
	if sum != 32 {
		t.Fatalf("allocation sums to %d, want 32", sum)
	}
}

func TestCacheHungryAppsWinWays(t *testing.T) {
	mcf := mustApp(t, "mcf")       // large working set, memory-bound
	gamess := mustApp(t, "gamess") // tiny working set
	curves := []Curve{curveFor(mcf), curveFor(gamess)}
	alloc := Partition(nil, curves, 16, 1)
	if alloc[0] <= alloc[1] {
		t.Fatalf("mcf got %d ways, gamess %d — memory-bound app should win", alloc[0], alloc[1])
	}
}

func TestZeroWeightGetsMinimum(t *testing.T) {
	flat := Curve{MissRatio: func(float64) float64 { return 0.5 }, Weight: 0}
	hungry := curveFor(func() *workload.Profile { p := mustApp(t, "mcf"); return p }())
	alloc := Partition(nil, []Curve{flat, hungry}, 10, 1)
	if alloc[0] != 1 {
		t.Fatalf("zero-weight app got %d ways, want the minimum 1", alloc[0])
	}
	if alloc[1] != 9 {
		t.Fatalf("remaining ways not given to the only beneficiary: %v", alloc)
	}
}

func TestAllFlatCurvesDistributesEvenly(t *testing.T) {
	flat := Curve{MissRatio: func(float64) float64 { return 0.5 }, Weight: 1}
	alloc := Partition(nil, []Curve{flat, flat, flat, flat}, 8, 1)
	sum := 0
	for _, w := range alloc {
		sum += w
	}
	if sum != 8 {
		t.Fatalf("flat curves: sum %d, want 8", sum)
	}
}

func TestLookaheadHandlesCliffCurves(t *testing.T) {
	// App A: no benefit until 4 ways, then a cliff. App B: small smooth
	// gains. Greedy single-way allocation would starve A; lookahead
	// must see the cliff.
	cliff := Curve{
		MissRatio: func(w float64) float64 {
			if w >= 4 {
				return 0.05
			}
			return 0.9
		},
		Weight: 1,
	}
	smooth := Curve{
		MissRatio: func(w float64) float64 { return 0.5 / (1 + w*0.05) },
		Weight:    1,
	}
	alloc := Partition(nil, []Curve{cliff, smooth}, 6, 0)
	if alloc[0] < 4 {
		t.Fatalf("lookahead missed the cliff: %v", alloc)
	}
}

func TestMinimumBudgetPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("infeasible minimums did not panic")
		}
	}()
	flat := Curve{MissRatio: func(float64) float64 { return 0 }, Weight: 0}
	Partition(nil, []Curve{flat, flat, flat}, 2, 1)
}

func TestEmptyInput(t *testing.T) {
	if got := Partition(nil, nil, 32, 1); got != nil {
		t.Fatalf("empty input should return nil, got %v", got)
	}
}

func TestPartitionProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw, budgetRaw uint8) bool {
		n := 1 + int(nRaw%10)
		budget := n + int(budgetRaw%32)
		apps := workload.Synthetic(seed, n)
		curves := make([]Curve, n)
		for i, a := range apps {
			curves[i] = curveFor(a)
		}
		alloc := Partition(nil, curves, budget, 1)
		sum := 0
		for _, w := range alloc {
			if w < 1 {
				return false
			}
			sum += w
		}
		return sum == budget
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// mustApp resolves a workload profile by name, failing the test on a
// bad name so the error is never silently dropped.
func mustApp(t testing.TB, name string) *workload.Profile {
	t.Helper()
	app, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// partitionReference is Partition as it was before the miss-ratio
// table: the lookahead evaluates the curve closures at every step.
func partitionReference(curves []Curve, totalWays, minWays int) []int {
	n := len(curves)
	alloc := make([]int, n)
	for i := range alloc {
		alloc[i] = minWays
	}
	balance := totalWays - n*minWays
	utility := func(i, from, to int) float64 {
		return curves[i].Weight *
			(curves[i].MissRatio(float64(from)) - curves[i].MissRatio(float64(to)))
	}
	for balance > 0 {
		bestApp, bestSteps := -1, 0
		bestMU := 0.0
		for i := range curves {
			for k := 1; k <= balance; k++ {
				mu := utility(i, alloc[i], alloc[i]+k) / float64(k)
				if mu > bestMU {
					bestMU, bestApp, bestSteps = mu, i, k
				}
			}
		}
		if bestApp < 0 {
			break
		}
		alloc[bestApp] += bestSteps
		balance -= bestSteps
	}
	for i := 0; balance > 0; i = (i + 1) % n {
		alloc[i]++
		balance--
	}
	return alloc
}

// randomCurves mixes the synthetic application curves with cliffs at
// random way counts, the shape the lookahead exists for.
func randomCurves(r *rng.RNG, n int) []Curve {
	curves := make([]Curve, n)
	for i, a := range workload.Synthetic(r.Uint64(), n) {
		curves[i] = curveFor(a)
		if r.Intn(4) == 0 {
			edge, w := float64(1+r.Intn(12)), r.Float64()
			curves[i] = Curve{Weight: w, MissRatio: func(ways float64) float64 {
				if ways >= edge {
					return 0.05
				}
				return 0.9
			}}
		}
	}
	return curves
}

func TestPartitionMatchesClosureReference(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(16)
		minWays := r.Intn(3)
		budget := n*minWays + r.Intn(40)
		if trial%50 == 0 {
			n, minWays, budget = 20, 1, 60 // larger than the stack-resident table
		}
		curves := randomCurves(r, n)
		got, want := Partition(nil, curves, budget, minWays), partitionReference(curves, budget, minWays)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d budget=%d min=%d): table %v, closures %v",
					trial, n, budget, minWays, got, want)
			}
		}
	}
}

// countingCurves wraps each curve's MissRatio with a call counter.
func countingCurves(curves []Curve) ([]Curve, []int) {
	calls := make([]int, len(curves))
	out := make([]Curve, len(curves))
	for i, c := range curves {
		out[i] = Curve{Weight: c.Weight, MissRatio: func(w float64) float64 {
			calls[i]++
			return c.MissRatio(w)
		}}
	}
	return out, calls
}

// TestPartitionIntoDst pins the caller-owned result: the allocation
// lands in dst's storage when it has the room, whatever dst held, and
// a warm call allocates nothing.
func TestPartitionIntoDst(t *testing.T) {
	curves := randomCurves(rng.New(5), 16)
	want := Partition(nil, curves, 28, 1)
	dst := make([]int, 3, 16)
	for i := range dst {
		dst[i] = -7
	}
	got := Partition(dst, curves, 28, 1)
	if &got[0] != &dst[:1][0] {
		t.Fatal("Partition did not reuse dst's storage")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("into dst %v, fresh %v", got, want)
		}
	}
	if a := testing.AllocsPerRun(20, func() { got = Partition(got, curves, 28, 1) }); a != 0 {
		t.Fatalf("warm Partition allocates %v times", a)
	}
}

func TestPartitionEvaluatesEachCurveOncePerWayCount(t *testing.T) {
	const totalWays = 28
	curves, calls := countingCurves(randomCurves(rng.New(3), 16))
	Partition(nil, curves, totalWays, 1)
	for i, c := range calls {
		if c > totalWays+1 {
			t.Errorf("curve %d evaluated %d times, want at most %d", i, c, totalWays+1)
		}
	}
}

// BenchmarkPartition is the core-gating baseline's per-slice call: 16
// batch jobs sharing the 28 ways the LC service leaves.
func BenchmarkPartition(b *testing.B) {
	apps := workload.SPEC()[:16]
	plain := make([]Curve, len(apps))
	for i, a := range apps {
		plain[i] = curveFor(a)
	}
	curves, calls := countingCurves(plain)
	var dst []int
	for _, impl := range []struct {
		name string
		f    func([]Curve, int, int) []int
	}{
		{"table", func(c []Curve, total, min int) []int {
			dst = Partition(dst, c, total, min)
			return dst
		}},
		{"closures", partitionReference},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			clear(calls)
			for i := 0; i < b.N; i++ {
				impl.f(curves, 28, 1)
			}
			total := 0
			for _, c := range calls {
				total += c
			}
			b.ReportMetric(float64(total)/float64(b.N), "missratio-calls/op")
		})
	}
}
