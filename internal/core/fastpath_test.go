package core

import (
	"math"
	"reflect"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/dds"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/power"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// closureObjective is the batch objective (§VI-A) as the per-candidate
// closure the runtime scored with before the score tables: geometric-
// mean predicted batch throughput with soft penalties on power and
// cache violations, recomputing a math.Log and a ResourceByIndex per
// job per evaluation. It is the oracle separableObjective is pinned to.
func closureObjective(in *decision, svcs []svcChoice) dds.Objective {
	nBatch, budgetW := in.nBatch, in.budgetW
	fixedPower := power.LLCWayW*config.LLCWays + power.UncorePerCoreW*float64(in.nCores)
	lcWays := 0.0
	lcHalf := 0
	for _, s := range svcs {
		fixedPower += float64(s.cores) * s.predPwr
		if s.res.Cache == config.HalfWay {
			lcHalf++
		} else {
			lcWays += s.res.Cache.Ways()
		}
	}
	// Precompute per-row prediction slices for lock-free concurrent reads.
	thrRows := make([][]float64, nBatch)
	pwrRows := make([][]float64, nBatch)
	for i := 0; i < nBatch; i++ {
		thrRows[i] = in.thr.Row(batchRow(i))
		pwrRows[i] = in.pwr.Row(batchRow(i))
	}
	return func(x []int) float64 {
		logSum := 0.0
		powerW := fixedPower
		ways := lcWays
		halves := lcHalf
		for i, j := range x {
			logSum += math.Log(math.Max(thrRows[i][j], 1e-9))
			powerW += pwrRows[i][j]
			switch c := config.ResourceByIndex(j).Cache; c {
			case config.HalfWay:
				halves++
			default:
				ways += c.Ways()
			}
		}
		ways += float64((halves + 1) / 2)
		obj := math.Exp(logSum / float64(nBatch))
		if over := powerW - budgetW; over > 0 {
			obj -= penaltyPower * over
		}
		if over := ways - config.LLCWays; over > 0 {
			obj -= penaltyCache * over
		}
		return obj
	}
}

// oracleRuntime is a Runtime whose every decision also runs the
// preserved pre-change batch search — the closure objective under
// dds.SearchReference — on the decision's own input, and requires it
// to find what the production engine found, bit for bit.
type oracleRuntime struct {
	*Runtime
	t        *testing.T
	searches int
}

func (o *oracleRuntime) DecideMulti(profile []sim.PhaseResult, qps []float64, budgetW float64) (sim.Allocation, float64) {
	rt := o.Runtime
	rt.slice++
	rt.noteSampling()
	in := rt.estimate(profile, qps, budgetW)
	out := choose(in, &rt.scratch)
	if !in.fallback && in.nBatch > 0 {
		ref := dds.SearchReference(closureObjective(&in, out.svcs), searchParams(&in))
		got := out.search
		if !reflect.DeepEqual(ref.Best, got.Best) || math.Float64bits(ref.BestVal) != math.Float64bits(got.BestVal) ||
			ref.Evals != got.Evals {
			o.t.Fatalf("slice %d: search diverges from the reference:\nref  %v %v %d\nfast %v %v %d",
				rt.slice, ref.Best, ref.BestVal, ref.Evals, got.Best, got.BestVal, got.Evals)
		}
		o.searches++
	}
	rt.apply(out)
	return out.alloc, overheadSec
}

// fastPathMachine builds a machine with nBatch jobs around the named
// LC service, mirroring testMachine but with a configurable batch
// width (the decide-loop benchmarks run the paper's 26-job point).
func fastPathMachine(tb testing.TB, lcName string, seed uint64, nBatch int) *sim.Machine {
	tb.Helper()
	lc, err := workload.ByName(lcName)
	if err != nil {
		tb.Fatal(err)
	}
	_, test := workload.SplitTrainTest(1, 16)
	return sim.New(sim.Spec{
		Seed:           seed,
		LC:             lc,
		Batch:          workload.Mix(seed, test, nBatch),
		Reconfigurable: true,
	})
}

// TestFastPathMatchesReference is the seed-swept equivalence contract:
// on every decision of every service and seed, the table-driven
// incremental search and the preserved pre-change implementation
// (closure objective + dds.SearchReference) run on the same input must
// return the same Best, BestVal bits and Evals (oracleRuntime), and
// the oracle-checked run's slice records — allocations and simulated
// metrics — must equal a plain run's. The plain leg is traced; the
// last cell pins its seeded work counters: evaluations, dimension
// contributions scored, and contributions the incremental evaluator
// skipped.
func TestFastPathMatchesReference(t *testing.T) {
	services := []string{"xapian", "masstree", "imgdnn", "moses", "silo"}
	seeds := []uint64{3, 7, 11, 19, 23}
	slices := 6
	if raceEnabled {
		// ~15x slower under the detector; the race coverage this build
		// is after lives in the dds/sgd engines, not the sweep breadth.
		services = services[:2]
		seeds = seeds[:2]
		slices = 4
	}
	type cell struct {
		svc    string
		seed   uint64
		slices int
		// work, when non-nil, is {evals, dims scored, dims saved}
		// summed over the fast leg.
		work *[3]int
	}
	var cells []cell
	for _, svc := range services {
		for _, seed := range seeds {
			cells = append(cells, cell{svc: svc, seed: seed, slices: slices})
		}
	}
	cells = append(cells, cell{svc: "xapian", seed: 1, slices: 10, work: &[3]int{32500, 388865, 131135}})
	for _, c := range cells {
		var oracle *oracleRuntime
		run := func(reference bool, col obs.Collector) *harness.Result {
			m := fastPathMachine(t, c.svc, c.seed, 16)
			var sched harness.Scheduler = New(m, Params{Seed: c.seed})
			if reference {
				oracle = &oracleRuntime{Runtime: sched.(*Runtime), t: t}
				sched = oracle
			}
			res, err := harness.Run(m, sched, c.slices,
				[]harness.LoadPattern{harness.ConstantLoad(0.7)}, harness.ConstantBudget(0.8), nil, col)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.svc, c.seed, err)
			}
			return res
		}
		ref := run(true, nil)
		if oracle.searches == 0 {
			t.Fatalf("%s seed %d: no decision ran the batch search", c.svc, c.seed)
		}
		rec := obs.NewRecorder()
		fast := run(false, rec)
		if !reflect.DeepEqual(ref.Slices, fast.Slices) {
			for i := range ref.Slices {
				if !reflect.DeepEqual(ref.Slices[i], fast.Slices[i]) {
					t.Fatalf("%s seed %d: slice %d diverges:\nref  %+v\nfast %+v",
						c.svc, c.seed, i, ref.Slices[i], fast.Slices[i])
				}
			}
			t.Fatalf("%s seed %d: results diverge", c.svc, c.seed)
		}
		if c.work == nil {
			continue
		}
		sums := map[string]int{}
		for _, s := range rec.Registry().Snapshot() {
			sums[s.Name] += int(s.Value)
		}
		got := [3]int{sums[obs.MetricSearchEvals], sums[obs.MetricSearchDims], sums[obs.MetricSearchDimsSaved]}
		if got != *c.work {
			t.Fatalf("%s seed %d: search work {evals, dims scored, dims saved} = %v, want %v",
				c.svc, c.seed, got, *c.work)
		}
	}
}

// searchBench captures one decision quantum's search inputs so the
// benchmark and the objective-equivalence test run the search phase in
// isolation, outside the simulator loop.
type searchBench struct {
	in     decision
	svcs   []svcChoice
	params dds.Params
	sc     dds.SeparableObjective
}

func newSearchBench(tb testing.TB, seed uint64, nBatch int) *searchBench {
	tb.Helper()
	m := fastPathMachine(tb, "xapian", seed, nBatch)
	rt := New(m, Params{Seed: seed})
	if _, err := harness.Run(m, rt, 2, []harness.LoadPattern{harness.ConstantLoad(0.7)}, harness.ConstantBudget(0.8), nil, nil); err != nil {
		tb.Fatal(err)
	}
	in := rt.estimate(nil, nil, 0.8*m.MaxPowerW())
	svcs := make([]svcChoice, len(rt.svcs))
	for k, sv := range rt.svcs {
		svcs[k] = svcChoice{
			res:   config.Resource{Core: config.Widest, Cache: config.TwoWays},
			cores: sv.cores, predPwr: sv.predPwr,
		}
	}
	params := rt.p.DDS
	params.Dims = nBatch
	params.NumConfigs = config.NumResources
	params.Seed = seed * 7919
	return &searchBench{in: in, svcs: svcs, params: params}
}

func (s *searchBench) closure() dds.Objective { return closureObjective(&s.in, s.svcs) }

func (s *searchBench) separable() *dds.SeparableObjective {
	separableObjective(&s.sc, &s.in, s.svcs)
	return &s.sc
}

func (s *searchBench) reference() dds.Result { return dds.SearchReference(s.closure(), s.params) }

func (s *searchBench) fast() dds.Result { return dds.SearchSeparable(s.separable(), s.params) }

// TestSeparableObjectiveMatchesClosure pins the score-table objective
// to the closure form bit-for-bit on random decision vectors — the
// invariant every fast-path equivalence rests on.
func TestSeparableObjectiveMatchesClosure(t *testing.T) {
	for _, seed := range []uint64{1, 2, 5} {
		s := newSearchBench(t, seed, 26)
		obj, sep := s.closure(), s.separable().Func()
		r := rng.New(seed)
		x := make([]int, 26)
		for trial := 0; trial < 500; trial++ {
			for d := range x {
				x[d] = r.Intn(config.NumResources)
			}
			a, b := obj(x), sep(x)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d trial %d: closure %v vs table %v on %v", seed, trial, a, b, x)
			}
		}
	}
}

// TestSearchFastMatchesReferenceIsolated runs the isolated search
// phase both ways and requires bit-identical decisions.
func TestSearchFastMatchesReferenceIsolated(t *testing.T) {
	for _, seed := range []uint64{1, 4, 9} {
		s := newSearchBench(t, seed, 26)
		ref, fast := s.reference(), s.fast()
		if !reflect.DeepEqual(ref.Best, fast.Best) {
			t.Fatalf("seed %d: Best differs\nref  %v\nfast %v", seed, ref.Best, fast.Best)
		}
		if math.Float64bits(ref.BestVal) != math.Float64bits(fast.BestVal) {
			t.Fatalf("seed %d: BestVal bits differ", seed)
		}
		if ref.Evals != fast.Evals {
			t.Fatalf("seed %d: Evals %d vs %d", seed, ref.Evals, fast.Evals)
		}
	}
}

// scheduleCandidates draws a candidate set from the real Fig. 6
// perturbation schedule against a fixed parent: for each iteration the
// inclusion probability shrinks as 1 − log(i)/log(40), exactly the
// stream shape the engine evaluates, with each candidate's dmin
// computed the way the engine computes it.
type schedCand struct {
	x    []int
	dmin int
}

func scheduleCandidates(seed uint64, dims int, parent []int) []schedCand {
	r := rng.New(seed)
	var out []schedCand
	for iter := 1; iter <= 40; iter++ {
		prob := 1 - math.Log(float64(iter))/math.Log(40)
		for pt := 0; pt < 10; pt++ {
			c := schedCand{x: make([]int, dims), dmin: dims}
			copy(c.x, parent)
			for d := 0; d < dims; d++ {
				if r.Float64() < prob {
					c.x[d] = r.Intn(config.NumResources)
					if c.x[d] != parent[d] && d < c.dmin {
						c.dmin = d
					}
				}
			}
			out = append(out, c)
		}
	}
	return out
}

// BenchmarkDecideLoop times the decision quantum's batch search at the
// paper's operating point (Dims=26, Workers=8): the pre-change
// implementation (closure objective recomputing 26 math.Log +
// ResourceByIndex per evaluation under dds.SearchReference) against
// the fast path (per-slice score tables + incremental evaluation).
// The search legs time the whole search — the fast leg includes table
// construction, charged every quantum — so on a single-core host they
// converge toward the frozen RNG stream both engines must consume
// identically. The eval leg times the closure's per-candidate
// evaluation alone (the decision loop's inner loop, ~3250 calls per
// slice) over the real perturbation schedule; dds's
// BenchmarkDDSIncremental times the incremental evaluation the fast
// path runs on the same schedule.
func BenchmarkDecideLoop(b *testing.B) {
	s := newSearchBench(b, 1, 26)
	if !reflect.DeepEqual(s.reference().Best, s.fast().Best) {
		b.Fatal("legs diverge; benchmark would compare different searches")
	}
	b.Run("search-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.reference()
		}
	})
	b.Run("search-fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.fast()
		}
	})

	parent := make([]int, 26)
	for d := range parent {
		parent[d] = (d * 17) % config.NumResources
	}
	cands := scheduleCandidates(2, 26, parent)
	var sink float64
	b.Run("eval-reference", func(b *testing.B) {
		obj := s.closure()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += obj(cands[i%len(cands)].x)
		}
	})
	_ = sink
}
