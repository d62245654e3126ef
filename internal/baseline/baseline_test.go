package baseline

import (
	"math"
	"reflect"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/ucp"
	"cuttlesys/internal/workload"
)

func mustRun(t *testing.T, m *sim.Machine, s harness.Scheduler, slices int, load harness.LoadPattern, budget harness.BudgetPattern) *harness.Result {
	t.Helper()
	res, err := harness.Run(m, s, slices, []harness.LoadPattern{load}, budget, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func machine(t *testing.T, seed uint64, reconfigurable bool) *sim.Machine {
	t.Helper()
	lc, err := workload.ByName("xapian")
	if err != nil {
		t.Fatal(err)
	}
	_, test := workload.SplitTrainTest(1, 16)
	return sim.New(sim.Spec{
		Seed:           seed,
		LC:             lc,
		Batch:          workload.Mix(seed, test, 16),
		Reconfigurable: reconfigurable,
	})
}

func TestNoGating(t *testing.T) {
	m := machine(t, 1, true)
	res := mustRun(t, m, NewNoGating(m), 5, harness.ConstantLoad(0.8), harness.ConstantBudget(0.9))
	if res.TotalInstrB() <= 0 {
		t.Fatal("no work executed")
	}
	// The reference runs everything at the widest configuration and
	// ignores the budget entirely; every slice uses the same allocation.
	for _, s := range res.Slices {
		if s.LCCoreCfg != config.Widest.String() {
			t.Fatal("no-gating must keep the widest configuration")
		}
	}
}

func TestCoreGatingMeetsBudget(t *testing.T) {
	for _, wp := range []bool{false, true} {
		m := machine(t, 2, false)
		g := NewCoreGating(m, DescendingPower, wp, 2)
		res := mustRun(t, m, g, 8, harness.ConstantLoad(0.8), harness.ConstantBudget(0.6))
		if n := res.BudgetViolations(0.05); n > 1 {
			t.Errorf("wp=%v: %d slices exceeded the 60%% budget", wp, n)
		}
		if res.TotalInstrB() <= 0 {
			t.Errorf("wp=%v: no work executed", wp)
		}
	}
}

func TestCoreGatingGatesUnderTightCaps(t *testing.T) {
	m := machine(t, 3, false)
	g := NewCoreGating(m, DescendingPower, false, 3)
	resTight := mustRun(t, m, g, 5, harness.ConstantLoad(0.8), harness.ConstantBudget(0.5))
	m2 := machine(t, 3, false)
	g2 := NewCoreGating(m2, DescendingPower, false, 3)
	resLoose := mustRun(t, m2, g2, 5, harness.ConstantLoad(0.8), harness.ConstantBudget(0.9))
	if resTight.TotalInstrB() >= resLoose.TotalInstrB() {
		t.Fatalf("tighter cap should cost throughput: %.1f vs %.1f",
			resTight.TotalInstrB(), resLoose.TotalInstrB())
	}
}

func TestWayPartitioningHelpsGating(t *testing.T) {
	// §VII-B / Fig. 5c: core-gating with UCP way-partitioning modestly
	// beats plain core-gating on average (the paper's 1.64x vs 1.52x
	// CuttleSys ratios imply ~8%). Individual mixes can tie or invert,
	// so compare aggregate work across several mixes.
	run := func(wp bool) float64 {
		total := 0.0
		for _, seed := range []uint64{3, 4, 12} {
			m := machine(t, seed, false)
			g := NewCoreGating(m, DescendingPower, wp, seed)
			total += mustRun(t, m, g, 8, harness.ConstantLoad(0.8), harness.ConstantBudget(0.7)).TotalInstrB()
		}
		return total
	}
	plain, partitioned := run(false), run(true)
	if partitioned < 0.98*plain {
		t.Fatalf("way partitioning should not hurt on aggregate: %.2f vs %.2f", partitioned, plain)
	}
}

func TestAsymmetricOracle(t *testing.T) {
	m := machine(t, 6, false)
	a := NewAsymmetric(m, true)
	res := mustRun(t, m, a, 8, harness.ConstantLoad(0.8), harness.ConstantBudget(0.7))
	if n := res.BudgetViolations(0.08); n > 1 {
		t.Errorf("oracle exceeded budget on %d slices", n)
	}
	if res.QoSViolations() > 1 {
		t.Errorf("oracle violated QoS on %d slices (worst %.2fx)", res.QoSViolations(), res.WorstP99Ratio())
	}
	// Big/little mix: some jobs should run on big cores at a 70% cap.
	foundBig := false
	for _, s := range res.Slices {
		if s.GmeanBIPS > 0 {
			foundBig = true
		}
	}
	if !foundBig {
		t.Fatal("oracle executed nothing")
	}
}

func TestOracleBeats5050AtModerateCaps(t *testing.T) {
	// §VIII-C: the oracle outperforms the fixed 50-50 design at relaxed
	// and moderate caps, converging at stringent ones.
	run := func(oracle bool, cap float64) float64 {
		m := machine(t, 7, false)
		return mustRun(t, m, NewAsymmetric(m, oracle), 8,
			harness.ConstantLoad(0.8), harness.ConstantBudget(cap)).TotalInstrB()
	}
	if o, f := run(true, 0.8), run(false, 0.8); o < f*0.98 {
		t.Errorf("oracle (%.1f) should be at least on par with 50-50 (%.1f) at an 80%% cap", o, f)
	}
}

func worstP99Ms(res *harness.Result) float64 {
	worst := 0.0
	for _, s := range res.Slices {
		if s.P99Ms > worst {
			worst = s.P99Ms
		}
	}
	return worst
}

func TestFlickerDamagesTailLatency(t *testing.T) {
	// §VIII-E: Flicker's per-configuration profiling drags the
	// latency-critical service through narrow configurations — 10 ms
	// per sample in mode (a), plus an unpartitioned LLC in both modes —
	// and the paper reports QoS violations of >10x (mode a) and ~1.5x
	// (mode b) on zsim. Our analytical substrate has a milder
	// wide-to-narrow dynamic range (see EXPERIMENTS.md), so the
	// preserved, testable claim is relative: on the same mix and load,
	// Flicker mode (a)'s worst slice p99 must be several times worse
	// than the widest-configuration baseline the service would
	// otherwise enjoy, with mode (b) in between.
	seed := uint64(3)
	load, cap := harness.ConstantLoad(0.9), harness.ConstantBudget(0.8)

	mRef := machine(t, seed, true)
	ref := mustRun(t, mRef, NewNoGating(mRef), 8, load, cap)

	mA := machine(t, seed, true)
	a := mustRun(t, mA, NewFlicker(mA, false, seed), 8, load, cap)

	mB := machine(t, seed, true)
	b := mustRun(t, mB, NewFlicker(mB, true, seed), 8, load, cap)

	refWorst, aWorst, bWorst := worstP99Ms(ref), worstP99Ms(a), worstP99Ms(b)
	if aWorst < 1.8*refWorst {
		t.Errorf("Flicker mode (a) worst p99 %.2f ms should be well above the no-gating baseline %.2f ms", aWorst, refWorst)
	}
	if aWorst < bWorst {
		t.Errorf("mode (a) (%.2f ms) should damage the tail more than mode (b) (%.2f ms)", aWorst, bWorst)
	}
	if a.TotalInstrB() <= 0 || b.TotalInstrB() <= 0 {
		t.Fatal("Flicker executed nothing")
	}
}

func TestUCPPartitionRespectsBudget(t *testing.T) {
	m := machine(t, 11, false)
	a := sim.Uniform(len(m.Batch()), true, 16, config.Widest, config.OneWay)
	a.Batch[3].Gated = true
	NewCoreGating(m, DescendingPower, true, 1).ucpPartition(&a)
	total := a.LCCache.Ways()
	for i, b := range a.Batch {
		if b.Gated {
			continue
		}
		if b.Cache < 1 {
			t.Fatalf("job %d got %v ways, want >= 1", i, b.Cache)
		}
		total += b.Cache.Ways()
	}
	if total > config.LLCWays {
		t.Fatalf("UCP allocated %.1f ways, budget 32", total)
	}
}

// TestMissCurvesMatchMissRatio pins the tabulated UCP curves to the
// profiles' own miss ratio, bit for bit at every integer way count,
// and the partition they produce to the one untabulated curves give.
func TestMissCurvesMatchMissRatio(t *testing.T) {
	m := machine(t, 11, false)
	batch := m.Batch()
	tab := missCurves(batch)
	direct := make([]ucp.Curve, len(batch))
	for i, app := range batch {
		direct[i] = ucp.Curve{MissRatio: app.MissRatio, Weight: app.MemFrac * app.L1MissRate}
		if tab[i].Weight != direct[i].Weight {
			t.Fatalf("job %d: weight %v, want %v", i, tab[i].Weight, direct[i].Weight)
		}
		for w := 0; w <= config.LLCWays; w++ {
			if got, want := tab[i].MissRatio(float64(w)), app.MissRatio(float64(w)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("job %d at %d ways: %v, want %v", i, w, got, want)
			}
		}
	}
	for n := 1; n <= len(batch); n++ {
		for _, budget := range []int{n, 20, 28, config.LLCWays} {
			if budget < n {
				continue
			}
			got, want := ucp.Partition(nil, tab[:n], budget, 1), ucp.Partition(nil, direct[:n], budget, 1)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d jobs, %d ways: %v, want %v", n, budget, got, want)
			}
		}
	}
}

func TestDVFSMeetsBudget(t *testing.T) {
	m := machine(t, 13, false)
	d := NewDVFS(m, 13)
	res := mustRun(t, m, d, 8, harness.ConstantLoad(0.8), harness.ConstantBudget(0.75))
	if res.TotalInstrB() <= 0 {
		t.Fatal("DVFS executed nothing")
	}
	if n := res.BudgetViolations(0.06); n > 1 {
		t.Errorf("DVFS exceeded the budget on %d slices", n)
	}
}

func TestDVFSDownclocksUnderPressure(t *testing.T) {
	// At a moderate cap the maxBIPS policy should downclock rather than
	// gate: more work than core gating at the same budget.
	capFrac := 0.75
	m1 := machine(t, 14, false)
	dv := mustRun(t, m1, NewDVFS(m1, 14), 8,
		harness.ConstantLoad(0.8), harness.ConstantBudget(capFrac)).TotalInstrB()
	m2 := machine(t, 14, false)
	cg := mustRun(t, m2, NewCoreGating(m2, DescendingPower, false, 14), 8,
		harness.ConstantLoad(0.8), harness.ConstantBudget(capFrac)).TotalInstrB()
	if dv <= cg {
		t.Errorf("DVFS (%.1f) should beat whole-core gating (%.1f) at a moderate cap", dv, cg)
	}
}

func TestDVFSVoltageFloorLimitsSavings(t *testing.T) {
	// §II-A: the thin voltage range means DVFS alone cannot reach deep
	// power caps — it must fall back to gating, unlike reconfigurable
	// cores which keep every core partially powered. At a 50% cap the
	// DVFS baseline gates cores.
	m := machine(t, 15, false)
	d := NewDVFS(m, 15)
	res := mustRun(t, m, d, 5, harness.ConstantLoad(0.8), harness.ConstantBudget(0.5))
	if res.TotalInstrB() <= 0 {
		t.Fatal("DVFS executed nothing at the tight cap")
	}
	if n := res.BudgetViolations(0.08); n > 1 {
		t.Errorf("DVFS exceeded the tight budget on %d slices", n)
	}
}
