package harness

import (
	"math"
	"strings"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// staticScheduler applies one fixed allocation with optional profiling
// phases and overhead — enough to exercise every driver path.
type staticScheduler struct {
	alloc    sim.Allocation
	profiles []Phase
	overhead float64

	decides, ends int
	profResults   [][]sim.PhaseResult
	steadies      []sim.PhaseResult
}

func (s *staticScheduler) Name() string { return "static" }
func (s *staticScheduler) ProfilePhasesMulti(qps []float64, budgetW float64) []Phase {
	return s.profiles
}
func (s *staticScheduler) DecideMulti(profile []sim.PhaseResult, qps []float64, budgetW float64) (sim.Allocation, float64) {
	s.decides++
	s.profResults = append(s.profResults, profile)
	return s.alloc, s.overhead
}
func (s *staticScheduler) EndSliceMulti(steady sim.PhaseResult, qps []float64) {
	s.ends++
	s.steadies = append(s.steadies, steady)
}

func testMachine(t *testing.T) *sim.Machine {
	t.Helper()
	lc, err := workload.ByName("silo")
	if err != nil {
		t.Fatal(err)
	}
	_, test := workload.SplitTrainTest(1, 16)
	return sim.New(sim.Spec{Seed: 1, LC: lc, Batch: workload.Mix(1, test, 16), Reconfigurable: true})
}

func TestRunBasicAccounting(t *testing.T) {
	m := testMachine(t)
	s := &staticScheduler{alloc: sim.Uniform(16, true, 16, config.Widest, config.OneWay)}
	res, err := Run(m, s, 5, []LoadPattern{ConstantLoad(0.5)}, ConstantBudget(0.8), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slices) != 5 || s.decides != 5 || s.ends != 5 {
		t.Fatalf("slices/decides/ends = %d/%d/%d", len(res.Slices), s.decides, s.ends)
	}
	for _, rec := range res.Slices {
		if math.Abs(rec.LoadFrac-0.5) > 1e-12 {
			t.Fatal("load pattern not applied")
		}
		if rec.TotalInstrB <= 0 || rec.AvgPowerW <= 0 {
			t.Fatal("missing accounting")
		}
		if rec.P99Ms <= 0 {
			t.Fatal("missing tail latency")
		}
	}
	if m.Now() < 0.5-1e-9 {
		t.Fatalf("machine advanced only %v s", m.Now())
	}
}

func TestProfilingPhasesExecuted(t *testing.T) {
	m := testMachine(t)
	prof := sim.Uniform(16, true, 16, config.Narrowest, config.OneWay)
	s := &staticScheduler{
		alloc:    sim.Uniform(16, true, 16, config.Widest, config.OneWay),
		profiles: []Phase{{Dur: 0.001, Alloc: prof}, {Dur: 0.001, Alloc: prof}},
	}
	if _, err := Run(m, s, 2, []LoadPattern{ConstantLoad(0.5)}, ConstantBudget(0.8), nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(s.profResults[0]) != 2 {
		t.Fatalf("scheduler saw %d profile results, want 2", len(s.profResults[0]))
	}
	// A slice is still exactly SliceDur long: profiling is carved out of
	// it, so steady phases shrink accordingly.
	if got := s.steadies[0].Dur; math.Abs(got-(SliceDur-0.002)) > 1e-9 {
		t.Fatalf("steady duration %v, want %v", got, SliceDur-0.002)
	}
}

func TestOverheadHoldsPreviousAllocation(t *testing.T) {
	m := testMachine(t)
	s := &staticScheduler{
		alloc:    sim.Uniform(16, true, 16, config.Widest, config.OneWay),
		overhead: 0.01,
	}
	res, err := Run(m, s, 3, []LoadPattern{ConstantLoad(0.5)}, ConstantBudget(0.8), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Steady state shrinks by the overhead.
	if got := s.steadies[1].Dur; math.Abs(got-(SliceDur-0.01)) > 1e-9 {
		t.Fatalf("steady duration %v, want %v", got, SliceDur-0.01)
	}
	if len(res.Slices) != 3 {
		t.Fatal("wrong slice count")
	}
}

func TestLoadPatterns(t *testing.T) {
	d := DiurnalLoad(0.2, 1.0, 1.0)
	if v := d(0); math.Abs(v-0.2) > 1e-9 {
		t.Fatalf("diurnal at t=0: %v", v)
	}
	if v := d(0.5); math.Abs(v-1.0) > 1e-9 {
		t.Fatalf("diurnal at half period: %v", v)
	}
	if v := d(1.0); math.Abs(v-0.2) > 1e-9 {
		t.Fatalf("diurnal at full period: %v", v)
	}
	st := StepLoad(0.2, 0.9, 1, 2)
	if st(0.5) != 0.2 || st(1.5) != 0.9 || st(2.5) != 0.2 {
		t.Fatal("step load wrong")
	}
	sb := StepBudget(0.9, 0.6, 1, 2)
	if sb(0.5) != 0.9 || sb(1.5) != 0.6 || sb(2.5) != 0.9 {
		t.Fatal("step budget wrong")
	}
	if ConstantLoad(0.7)(123) != 0.7 || ConstantBudget(0.5)(99) != 0.5 {
		t.Fatal("constant patterns wrong")
	}
}

func TestResultAggregates(t *testing.T) {
	r := &Result{Scheduler: "x", Slices: []SliceRecord{
		{TotalInstrB: 2, P99Ms: 5, QoSMs: 10, GmeanBIPS: 1, AvgPowerW: 50, BudgetW: 60},
		{TotalInstrB: 3, P99Ms: 20, QoSMs: 10, Violated: true, GmeanBIPS: 3, AvgPowerW: 70, BudgetW: 60},
	}}
	if r.TotalInstrB() != 5 {
		t.Fatal("TotalInstrB wrong")
	}
	if r.QoSViolations() != 1 {
		t.Fatal("QoSViolations wrong")
	}
	if r.WorstP99Ratio() != 2 {
		t.Fatal("WorstP99Ratio wrong")
	}
	if r.MeanGmeanBIPS() != 2 {
		t.Fatal("MeanGmeanBIPS wrong")
	}
	if r.BudgetViolations(0.05) != 1 {
		t.Fatal("BudgetViolations wrong")
	}
	if r.BudgetViolations(0.5) != 0 {
		t.Fatal("BudgetViolations tolerance ignored")
	}
	if r.String() == "" {
		t.Fatal("String empty")
	}
}

func TestRunErrorsOnBadSetup(t *testing.T) {
	m := testMachine(t)
	sched := &staticScheduler{alloc: sim.Uniform(16, true, 16, config.Widest, config.OneWay)}
	if _, err := Run(m, sched, 0, []LoadPattern{ConstantLoad(0.5)}, ConstantBudget(0.8), nil, nil); err == nil {
		t.Fatal("Run(0 slices) did not error")
	}
	if _, err := Run(m, sched, -3, []LoadPattern{ConstantLoad(0.5)}, ConstantBudget(0.8), nil, nil); err == nil {
		t.Fatal("Run(-3 slices) did not error")
	}
	// Fewer load patterns than services.
	if _, err := Run(m, sched, 2, nil, ConstantBudget(0.8), nil, nil); err == nil {
		t.Fatal("RunMulti without load patterns did not error")
	}
	// A scheduler emitting a broken profile phase.
	bad := &staticScheduler{
		alloc:    sim.Uniform(16, true, 16, config.Widest, config.OneWay),
		profiles: []Phase{{Dur: 0, Alloc: sim.Uniform(16, true, 16, config.Widest, config.OneWay)}},
	}
	if _, err := Run(m, bad, 2, []LoadPattern{ConstantLoad(0.5)}, ConstantBudget(0.8), nil, nil); err == nil {
		t.Fatal("zero-duration profile phase did not error")
	}
	// The machine must still be usable after the failed setups.
	if _, err := Run(m, sched, 1, []LoadPattern{ConstantLoad(0.5)}, ConstantBudget(0.8), nil, nil); err != nil {
		t.Fatalf("machine unusable after setup errors: %v", err)
	}
}

// TestRunMultiErrorPaths pins the validation the multi-service entry
// points and the Driver perform before any simulation time is spent:
// each bad input is rejected with a named error, and the machine is
// left untouched so the caller can correct and retry.
func TestRunMultiErrorPaths(t *testing.T) {
	m := testMachine(t)
	sched := &staticScheduler{alloc: sim.Uniform(16, true, 16, config.Widest, config.OneWay)}
	loads := []LoadPattern{ConstantLoad(0.5)}

	if _, err := Run(m, sched, 2, loads, nil, nil, nil); err == nil || !strings.Contains(err.Error(), "nil budget pattern") {
		t.Fatalf("nil budget pattern not rejected: %v", err)
	}
	if _, err := Run(m, sched, 2, []LoadPattern{nil}, ConstantBudget(0.8), nil, nil); err == nil || !strings.Contains(err.Error(), "load pattern 0 is nil") {
		t.Fatalf("nil load pattern not rejected: %v", err)
	}
	if _, err := Run(nil, sched, 2, loads, ConstantBudget(0.8), nil, nil); err == nil || !strings.Contains(err.Error(), "nil machine") {
		t.Fatalf("nil machine not rejected: %v", err)
	}
	if _, err := Run(m, nil, 2, loads, ConstantBudget(0.8), nil, nil); err == nil || !strings.Contains(err.Error(), "nil scheduler") {
		t.Fatalf("nil scheduler not rejected: %v", err)
	}

	// Driver.StepSlice rejects a qps slice shorter than the machine's
	// service count without advancing the clock.
	d, err := NewDriver(m, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Detach()
	if len(d.services) != 1 {
		t.Fatalf("%d services, want 1", len(d.services))
	}
	if _, err := d.StepSlice(nil, 0.5, 100); err == nil || !strings.Contains(err.Error(), "0 offered loads for 1 services") {
		t.Fatalf("short qps slice not rejected: %v", err)
	}
	if m.Now() != 0 {
		t.Fatalf("failed step advanced the clock to %v", m.Now())
	}

	// A well-formed step on the same driver still works.
	rec, err := d.StepSlice([]float64{0.5 * m.LC().MaxQPS}, 0.5, 0.8*m.MaxPowerW())
	if err != nil {
		t.Fatal(err)
	}
	if rec.TotalInstrB <= 0 || rec.QPS <= 0 {
		t.Fatalf("step after rejected input lost accounting: %+v", rec)
	}
}

// TestModulated covers the factor-table modulation the scenario
// engine compiles stochastic arrivals onto: an empty table must
// return the base pattern itself (so deterministic clients stay
// bitwise identical to their envelopes), indices round rather than
// floor (robust to a clock accumulated by repeated quantum adds), and
// out-of-range times clamp to the table edges.
func TestModulated(t *testing.T) {
	base := ConstantLoad(0.5)
	nilMod := Modulated(base, nil)
	for _, ts := range []float64{0, 0.05, 1, 100} {
		if nilMod(ts) != base(ts) {
			t.Errorf("empty factor table changed the pattern at t=%v", ts)
		}
	}
	factors := []float64{1, 2, 4}
	mod := Modulated(base, factors)
	cases := []struct {
		t    float64
		want float64
	}{
		{0, 0.5},                 // quantum 0
		{0.04, 0.5},              // rounds down to quantum 0
		{0.06, 1.0},              // rounds up to quantum 1
		{0.1 + 0.1 - 1e-13, 2.0}, // accumulated clock error still hits quantum 2
		{-1, 0.5},                // clamps low
		{5, 2.0},                 // clamps past the table end
	}
	for _, tc := range cases {
		if got := mod(tc.t); got != tc.want {
			t.Errorf("Modulated(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestQoSMissedTreatsNaNAsMiss(t *testing.T) {
	for _, c := range []struct {
		p99, qos float64
		want     bool
	}{
		{7.9, 8, false}, {8, 8, false}, {8.1, 8, true},
		{math.Inf(1), 8, true}, {math.NaN(), 8, true}, {0, 8, false},
	} {
		if got := qosMissed(c.p99, c.qos); got != c.want {
			t.Errorf("qosMissed(%v, %v) = %v, want %v", c.p99, c.qos, got, c.want)
		}
	}
}
