package core

import (
	"math"
	"reflect"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/fault"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/sgd"
	"cuttlesys/internal/sim"
)

func checkAllocFinite(t *testing.T, m *sim.Machine, alloc sim.Allocation) {
	t.Helper()
	if err := alloc.Validate(len(m.Batch()), m.LC() != nil, m.NCores()); err != nil {
		t.Fatalf("invalid allocation: %v", err)
	}
}

// TestDegenerateInputsDoNotPanic drives DecideMulti with the broken
// inputs a faulty environment can produce: empty or truncated
// profiles, short qps slices, and zero/negative/NaN budgets. Every
// case must yield a valid allocation, not a panic or NaN.
func TestDegenerateInputsDoNotPanic(t *testing.T) {
	m := testMachine(t, "xapian", 3)
	rt := New(m, Params{Seed: 3})

	cases := []struct {
		name    string
		profile []sim.PhaseResult
		qps     []float64
		budgetW float64
	}{
		{"empty profile", nil, []float64{5000}, 200},
		{"single profile window", []sim.PhaseResult{{}}, []float64{5000}, 200},
		{"truncated profile arrays", []sim.PhaseResult{
			{BatchBIPS: []float64{1}, BatchPowerW: []float64{2}},
			{BatchBIPS: []float64{1}, BatchPowerW: []float64{2}},
		}, []float64{5000}, 200},
		{"empty qps", nil, nil, 200},
		{"zero budget", nil, []float64{5000}, 0},
		{"negative budget", nil, []float64{5000}, -50},
		{"NaN budget", nil, []float64{5000}, math.NaN()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			alloc, overhead := rt.DecideMulti(tc.profile, tc.qps, tc.budgetW)
			if overhead <= 0 {
				t.Fatal("non-positive overhead")
			}
			checkAllocFinite(t, m, alloc)
		})
	}
	// The decision sees one load per service: zero when qps is short,
	// and no entry past the last service.
	for _, qps := range [][]float64{nil, {7, 9}} {
		want := []float64{0}
		copy(want, qps)
		if got := rt.estimate(nil, qps, 200).qps; !reflect.DeepEqual(got, want) {
			t.Fatalf("qps %v: decision loads %v, want %v", qps, got, want)
		}
	}
}

// TestGarbageTelemetryRejected feeds NaN/negative steady telemetry and
// profiling samples to the hardened runtime and checks none of it
// reaches the matrices (decisions stay valid), while ValidateProfile
// flags the corruption for the harness retry loop.
func TestGarbageTelemetryRejected(t *testing.T) {
	m := testMachine(t, "xapian", 4)
	rt := New(m, Params{Seed: 4})

	// Prime with one clean slice so lastAlloc exists.
	res := mustRun(t, m, rt, 1, harness.ConstantLoad(0.7), harness.ConstantBudget(0.8))
	_ = res

	garbage := sim.PhaseResult{
		Dur:         0.097,
		BatchBIPS:   make([]float64, 16),
		BatchPowerW: make([]float64, 16),
		LC:          []sim.LCResult{{CorePowerW: math.NaN(), Sojourns: []float64{math.NaN(), -0.5, 0.004}}},
	}
	for i := range garbage.BatchBIPS {
		garbage.BatchBIPS[i] = math.NaN()
		garbage.BatchPowerW[i] = -3
	}
	if err := rt.ValidateProfile([]sim.PhaseResult{garbage}); err == nil {
		t.Fatal("ValidateProfile accepted NaN telemetry")
	}
	cleanP99 := rt.svcs[0].lastP99Ms
	rt.EndSliceMulti(garbage, []float64{5000})
	// One NaN among plausible sojourns makes the whole tail NaN, so the
	// feedback guard fires; sorted to the front it used to drop out of
	// the p99 and the rest was learned as a 4 ms tail.
	garbage.LC[0].Sojourns = []float64{0.003, math.NaN(), 0.004}
	rt.EndSliceMulti(garbage, []float64{5000})
	if got := rt.svcs[0].lastP99Ms; got != cleanP99 {
		t.Fatalf("garbage sojourns moved the tail estimate %v -> %v", cleanP99, got)
	}
	alloc, _ := rt.DecideMulti([]sim.PhaseResult{garbage, garbage}, []float64{5000}, 200)
	checkAllocFinite(t, m, alloc)

	// The unhardened control accepts the same garbage.
	rtU := New(m, Params{Seed: 4, DisableResilience: true})
	if err := rtU.ValidateProfile([]sim.PhaseResult{garbage}); err != nil {
		t.Fatalf("unhardened runtime validates profiles: %v", err)
	}
}

// TestQuarantineCompensatesFailedCores checks the fail-stop response:
// after a steady slice reports failed cores, the next decision grants
// the service replacement cores and gates one batch job per failed
// batch core.
func TestQuarantineCompensatesFailedCores(t *testing.T) {
	m := testMachine(t, "xapian", 5)
	rt := New(m, Params{Seed: 5})
	mustRun(t, m, rt, 2, harness.ConstantLoad(0.7), harness.ConstantBudget(0.8))

	before := rt.lastAlloc.LCCores
	steady := *rt.lastAlloc
	pr := sim.PhaseResult{
		Dur:         0.097,
		BatchBIPS:   make([]float64, 16),
		BatchPowerW: make([]float64, 16),
		FailedLC:    3,
		FailedBatch: 2,
	}
	for i := range pr.BatchBIPS {
		pr.BatchBIPS[i] = 1
		pr.BatchPowerW[i] = 3
	}
	_ = steady
	rt.EndSliceMulti(pr, []float64{5000})
	alloc, _ := rt.DecideMulti(nil, []float64{5000}, 250)
	checkAllocFinite(t, m, alloc)
	if alloc.LCCores < before+3 {
		t.Fatalf("no LC compensation: %d cores before, %d after 3 failures", before, alloc.LCCores)
	}
	gated := 0
	for _, b := range alloc.Batch {
		if b.Gated {
			gated++
		}
	}
	if gated < 2 {
		t.Fatalf("only %d batch jobs gated after 2 failed batch cores", gated)
	}

	// Unhardened control: no compensation from the failure report alone.
	rtU := New(m, Params{Seed: 5, DisableResilience: true})
	mustRun(t, m, rtU, 2, harness.ConstantLoad(0.7), harness.ConstantBudget(0.8))
	beforeU := rtU.lastAlloc.LCCores
	rtU.EndSliceMulti(pr, []float64{5000})
	allocU, _ := rtU.DecideMulti(nil, []float64{5000}, 250)
	if allocU.LCCores > beforeU {
		t.Fatalf("unhardened runtime compensated cores: %d -> %d", beforeU, allocU.LCCores)
	}
}

// TestDivergenceTripsAndClears drives the detector directly: sustained
// mispredictions trip degraded mode, agreement clears it, and the
// fallback decision is the safe allocation.
func TestDivergenceTripsAndClears(t *testing.T) {
	m := testMachine(t, "xapian", 6)
	rt := New(m, Params{Seed: 6})
	mustRun(t, m, rt, 1, harness.ConstantLoad(0.7), harness.ConstantBudget(0.8))

	diverged := sim.PhaseResult{
		Dur:         0.097,
		BatchBIPS:   make([]float64, 16),
		BatchPowerW: make([]float64, 16),
	}
	for i := range diverged.BatchBIPS {
		diverged.BatchBIPS[i] = 1e-6 // wildly below any prediction
		diverged.BatchPowerW[i] = 3
	}
	for i := 0; i < divergenceSlices; i++ {
		if rt.Degraded() {
			t.Fatalf("degraded after only %d divergent slices", i)
		}
		rt.EndSliceMulti(diverged, []float64{5000})
		alloc, _ := rt.DecideMulti(nil, []float64{5000}, 250)
		checkAllocFinite(t, m, alloc)
	}
	if !rt.Degraded() {
		t.Fatalf("not degraded after %d divergent slices", divergenceSlices)
	}
	// The fallback allocation: batch all-narrowest, LC at the strongest
	// point.
	alloc, _ := rt.DecideMulti(nil, []float64{5000}, 250)
	for i, b := range alloc.Batch {
		if b.Gated {
			continue
		}
		if b.Core != config.Narrowest || b.Cache != config.OneWay {
			t.Fatalf("fallback batch job %d at %v/%v", i, b.Core, b.Cache)
		}
	}

	// A slice matching its predictions clears the streak.
	matched := sim.PhaseResult{
		Dur:         0.097,
		BatchBIPS:   make([]float64, 16),
		BatchPowerW: make([]float64, 16),
	}
	mux := rt.lastAlloc.MultiplexFactor(rt.nCores)
	for i := range matched.BatchBIPS {
		matched.BatchBIPS[i] = rt.predThr[i] * mux
		matched.BatchPowerW[i] = rt.predPwr[i]
	}
	rt.EndSliceMulti(matched, []float64{5000})
	if rt.Degraded() {
		t.Fatal("degraded mode survived a converged slice")
	}
}

// TestHardenedRecoversFasterUnderFailStop is the headline resilience
// property: under an identical core fail-stop schedule the hardened
// runtime's QoS-violation recovery time is strictly shorter than the
// trusting (DisableResilience) control's.
func TestHardenedRecoversFasterUnderFailStop(t *testing.T) {
	run := func(disable bool) *harness.Result {
		m := testMachine(t, "xapian", 9)
		rt := New(m, Params{Seed: 9, DisableResilience: disable})
		inj := fault.MustSchedule(9,
			fault.Event{Kind: fault.CoreFailStop, Start: 0.5, End: 1.5, Cores: 10})
		res, err := harness.Run(m, rt, 30,
			[]harness.LoadPattern{harness.ConstantLoad(0.85)}, harness.ConstantBudget(0.8), inj, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hard := run(false)
	soft := run(true)
	hr, sr := hard.RecoverySlices(), soft.RecoverySlices()
	t.Logf("recovery: hardened=%d unhardened=%d slices", hr, sr)
	t.Logf("fault-attributed violations: hardened=%d unhardened=%d",
		hard.FaultAttributedViolations(), soft.FaultAttributedViolations())
	if sr == 0 {
		t.Fatal("fail-stop caused no violations in the control; fault too weak to measure recovery")
	}
	if hr >= sr {
		t.Fatalf("hardened recovery %d slices, not better than unhardened %d", hr, sr)
	}
}

// TestPoisonedWarmStartRecovers imports a finite but overflowing factor
// set for every surface: each Q and P entry is 1e200, so the first dot
// product is +Inf. The import stands for the whole run, so unless sgd
// redoes such a fit cold, every slice's predictions are non-finite and
// every slice falls back.
func TestPoisonedWarmStartRecovers(t *testing.T) {
	load, budget := harness.ConstantLoad(0.4), harness.ConstantBudget(0.8)
	donorM := testMachine(t, "xapian", 5)
	donor := New(donorM, Params{Seed: 5, ShareFactors: true})
	mustRun(t, donorM, donor, 1, load, budget)
	fac, err := donor.ExportFactors()
	if err != nil {
		t.Fatal(err)
	}
	poisoned := map[string]*sgd.Factors{}
	for surface, f := range fac {
		p := f.Clone()
		for i := range p.Q {
			p.Q[i] = 1e200
		}
		for i := range p.P {
			p.P[i] = 1e200
		}
		poisoned[surface] = p
	}

	m := testMachine(t, "xapian", 5)
	rt := New(m, Params{Seed: 5})
	rt.WarmStart(poisoned, 40, 2)
	rec := obs.NewRecorder()
	rt.SetCollector(rec)
	const slices = 20
	mustRun(t, m, rt, slices, load, budget)
	fallbacks := 0
	for _, e := range rec.Events() {
		if e.Name == obs.EventFallback {
			fallbacks++
		}
	}
	if fallbacks > 1 {
		t.Fatalf("%d of %d slices fell back after a poisoned warm start, want at most 1", fallbacks, slices)
	}
}
