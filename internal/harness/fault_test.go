package harness

import (
	"errors"
	"reflect"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/fault"
	"cuttlesys/internal/sim"
)

// TestRunFaultedEmptyScheduleMatchesRun is the no-op guarantee: an
// empty fault schedule must reproduce Run bit for bit — same records,
// same machine state, no extra RNG draws anywhere.
func TestRunFaultedEmptyScheduleMatchesRun(t *testing.T) {
	mkSched := func() *staticScheduler {
		prof := sim.Uniform(16, true, 16, config.Narrowest, config.OneWay)
		return &staticScheduler{
			alloc:    sim.Uniform(16, true, 16, config.Widest, config.OneWay),
			profiles: []Phase{{Dur: 0.001, Alloc: prof}, {Dur: 0.001, Alloc: prof}},
			overhead: 0.005,
		}
	}
	plain, err := Run(testMachine(t), mkSched(), 6, []LoadPattern{ConstantLoad(0.7)}, ConstantBudget(0.8), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := Run(testMachine(t), mkSched(), 6,
		[]LoadPattern{ConstantLoad(0.7)}, ConstantBudget(0.8), fault.MustSchedule(99), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, faulted) {
		t.Fatalf("empty schedule diverged from plain run:\nplain:   %+v\nfaulted: %+v", plain, faulted)
	}
	nilInj, err := Run(testMachine(t), mkSched(), 6,
		[]LoadPattern{ConstantLoad(0.7)}, ConstantBudget(0.8), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, nilInj) {
		t.Fatal("nil injector diverged from plain run")
	}
}

func TestRunFaultedRecordsFaultTelemetry(t *testing.T) {
	m := testMachine(t)
	s := &staticScheduler{alloc: sim.Uniform(16, true, 16, config.Widest, config.OneWay)}
	inj := fault.MustSchedule(4,
		fault.Event{Kind: fault.CoreFailStop, Start: 0.2, End: 0.4, Cores: 4, BatchCores: 2})
	res, err := Run(m, s, 6, []LoadPattern{ConstantLoad(0.7)}, ConstantBudget(0.8), inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range res.Slices {
		inWindow := rec.T >= 0.2 && rec.T < 0.4
		if inWindow {
			if !reflect.DeepEqual(rec.FaultKinds, []string{"core-failstop"}) {
				t.Fatalf("slice %d: fault kinds %v", i, rec.FaultKinds)
			}
			if rec.FailedCores != 6 {
				t.Fatalf("slice %d: %d failed cores, want 6", i, rec.FailedCores)
			}
		} else {
			if rec.FaultKinds != nil || rec.FailedCores != 0 {
				t.Fatalf("slice %d: fault telemetry outside window: %v/%d",
					i, rec.FaultKinds, rec.FailedCores)
			}
		}
	}
}

func TestFlashCrowdAndBudgetDropPerturbEnvironment(t *testing.T) {
	m := testMachine(t)
	s := &staticScheduler{alloc: sim.Uniform(16, true, 16, config.Widest, config.OneWay)}
	inj := fault.MustSchedule(4,
		fault.Event{Kind: fault.FlashCrowd, Start: 0.1, End: 0.3, Factor: 1.5},
		fault.Event{Kind: fault.BudgetDrop, Start: 0.3, End: 0.5, Factor: 0.5})
	res, err := Run(m, s, 6, []LoadPattern{ConstantLoad(0.5)}, ConstantBudget(0.8), inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := res.Slices[0]
	crowd := res.Slices[1]  // t=0.1
	capped := res.Slices[3] // t=0.3
	if crowd.QPS <= base.QPS*1.4 {
		t.Fatalf("flash crowd did not raise offered load: %v vs %v", crowd.QPS, base.QPS)
	}
	if capped.BudgetW >= base.BudgetW*0.6 {
		t.Fatalf("budget drop did not cut the budget: %v vs %v", capped.BudgetW, base.BudgetW)
	}
}

// validatingScheduler rejects profiles a fixed number of times to
// exercise the bounded retry loop.
type validatingScheduler struct {
	staticScheduler
	rejections int
	validated  int
}

func (v *validatingScheduler) ValidateProfile(profile []sim.PhaseResult) error {
	v.validated++
	if v.validated <= v.rejections {
		return errors.New("synthetic corruption")
	}
	return nil
}

func TestProfileRetryBounded(t *testing.T) {
	prof := sim.Uniform(16, true, 16, config.Narrowest, config.OneWay)
	mk := func(rejections int) *validatingScheduler {
		return &validatingScheduler{
			staticScheduler: staticScheduler{
				alloc:    sim.Uniform(16, true, 16, config.Widest, config.OneWay),
				profiles: []Phase{{Dur: 0.001, Alloc: prof}, {Dur: 0.001, Alloc: prof}},
			},
			rejections: rejections,
		}
	}

	// One rejection: a single retry, and the retry consumes slice time.
	s := mk(1)
	res, err := Run(testMachine(t), s, 1, []LoadPattern{ConstantLoad(0.5)}, ConstantBudget(0.8), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slices[0].ProfileRetries != 1 {
		t.Fatalf("ProfileRetries = %d, want 1", res.Slices[0].ProfileRetries)
	}
	if got, want := s.steadies[0].Dur, SliceDur-4*0.001; got > want+1e-9 {
		t.Fatalf("retry did not consume slice time: steady %v, want <= %v", got, want)
	}

	// Persistent rejection: bounded at MaxProfileRetries, run continues.
	s = mk(1000)
	res, err = Run(testMachine(t), s, 1, []LoadPattern{ConstantLoad(0.5)}, ConstantBudget(0.8), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slices[0].ProfileRetries != MaxProfileRetries {
		t.Fatalf("ProfileRetries = %d, want %d", res.Slices[0].ProfileRetries, MaxProfileRetries)
	}
	if s.decides != 1 {
		t.Fatal("decision skipped after exhausted retries")
	}
}

// TestProfileRetryParams covers the slice-time guard on re-profiling:
// with a permanently failing validator and profile phases of 20 ms in
// total, a second retry would push profiling to 60 ms, past half the
// quantum, so the guard stops after one retry — before the
// MaxProfileRetries bound. The decision and steady phase still run and
// the slice stays exactly one SliceDur on the clock grid.
func TestProfileRetryParams(t *testing.T) {
	prof := sim.Uniform(16, true, 16, config.Narrowest, config.OneWay)
	s := &validatingScheduler{
		staticScheduler: staticScheduler{
			alloc:    sim.Uniform(16, true, 16, config.Widest, config.OneWay),
			profiles: []Phase{{Dur: 0.01, Alloc: prof}, {Dur: 0.01, Alloc: prof}},
		},
		rejections: 1 << 30,
	}
	m := testMachine(t)
	d, err := NewDriver(m, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := d.StepSlice([]float64{0.5 * m.LC().MaxQPS}, 0.5, 0.8*m.MaxPowerW())
	if err != nil {
		t.Fatal(err)
	}
	if rec.ProfileRetries != 1 || rec.ProfileRetries >= MaxProfileRetries {
		t.Fatalf("ProfileRetries = %d, want 1 (guard before the bound of %d)", rec.ProfileRetries, MaxProfileRetries)
	}
	if got := m.Now() - rec.T; got > SliceDur+1e-9 {
		t.Fatalf("slice overran the quantum: %v elapsed", got)
	}
	if s.decides != 1 {
		t.Fatalf("decision phases: %d, want 1", s.decides)
	}
	if len(s.steadies) != 1 || s.steadies[0].Dur <= 0 {
		t.Fatal("steady phase did not run")
	}
}

// TestFaultRecoveryAtFinalQuantum pins the window edge against the
// slice grid: an event whose End lands exactly on the final quantum's
// start time is fully recovered for that quantum (windows are
// half-open), while an event covering the run's tail stays active
// through the last slice. The boundary is probed from a clean run so
// the test is immune to float drift in the accumulated clock.
func TestFaultRecoveryAtFinalQuantum(t *testing.T) {
	const slices = 6
	mkSched := func() *staticScheduler {
		return &staticScheduler{alloc: sim.Uniform(16, true, 16, config.Widest, config.OneWay)}
	}
	probe, err := Run(testMachine(t), mkSched(), slices, []LoadPattern{ConstantLoad(0.5)}, ConstantBudget(0.8), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lastT := probe.Slices[slices-1].T

	inj := fault.MustSchedule(4,
		fault.Event{Kind: fault.CoreFailStop, Start: 0, End: lastT, Cores: 4},
		fault.Event{Kind: fault.CoreFailSlow, Start: lastT, End: lastT + 1, Factor: 0.5})
	res, err := Run(testMachine(t), mkSched(), slices,
		[]LoadPattern{ConstantLoad(0.5)}, ConstantBudget(0.8), inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < slices-1; i++ {
		if got := res.Slices[i].FailedCores; got != 4 {
			t.Fatalf("slice %d: %d failed cores, want 4", i, got)
		}
	}
	last := res.Slices[slices-1]
	if last.FailedCores != 0 {
		t.Fatalf("final quantum still fail-stopped: %d cores", last.FailedCores)
	}
	if !reflect.DeepEqual(last.FaultKinds, []string{"core-failslow"}) {
		t.Fatalf("final quantum fault kinds %v, want only core-failslow", last.FaultKinds)
	}
}

// TestComposedInjectorOnDrainedMachine drives a fault.Compose stack —
// a standing chaos schedule under a drill's budget squeeze — on a
// machine offered zero load, the control plane's drain posture. The
// slice loop must stay well-defined (no violations from phantom
// traffic), both layers' effects must land, and wrapping a single
// schedule with a nil overlay must be a bit-exact no-op.
func TestComposedInjectorOnDrainedMachine(t *testing.T) {
	// The composite satisfies the harness's injector surface directly.
	base := fault.MustSchedule(4,
		fault.Event{Kind: fault.CoreFailStop, Start: 0.2, End: 0.4, Cores: 4})
	drill := fault.MustSchedule(5,
		fault.Event{Kind: fault.BudgetDrop, Start: 0.3, End: 0.5, Factor: 0.5})
	var inj FaultInjector = fault.Compose(base, drill)

	mkSched := func() *staticScheduler {
		return &staticScheduler{alloc: sim.Uniform(16, true, 16, config.Widest, config.OneWay)}
	}
	res, err := Run(testMachine(t), mkSched(), 6,
		[]LoadPattern{ConstantLoad(0)}, ConstantBudget(0.8), inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	sawStop, sawDrop := false, false
	for i, rec := range res.Slices {
		if rec.QPS != 0 {
			t.Fatalf("slice %d: drained machine offered %v qps", i, rec.QPS)
		}
		if rec.Violated {
			t.Fatalf("slice %d: zero-load slice violated QoS", i)
		}
		if rec.FailedCores == 4 {
			sawStop = true
		}
		if rec.BudgetW < res.Slices[0].BudgetW*0.6 {
			sawDrop = true
		}
	}
	if !sawStop || !sawDrop {
		t.Fatalf("composed layers missing on drained machine: failstop %v, budgetdrop %v",
			sawStop, sawDrop)
	}

	// Drain-aware wrapping cost: Compose(base, nil) is base itself.
	plain, err := Run(testMachine(t), mkSched(), 6,
		[]LoadPattern{ConstantLoad(0.5)}, ConstantBudget(0.8), fault.MustSchedule(4,
			fault.Event{Kind: fault.CoreFailStop, Start: 0.2, End: 0.4, Cores: 4}), nil)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := Run(testMachine(t), mkSched(), 6,
		[]LoadPattern{ConstantLoad(0.5)}, ConstantBudget(0.8), fault.Compose(fault.MustSchedule(4,
			fault.Event{Kind: fault.CoreFailStop, Start: 0.2, End: 0.4, Cores: 4}), nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, wrapped) {
		t.Fatal("nil-overlay composition diverged from the bare schedule")
	}
}

func TestResilienceMetrics(t *testing.T) {
	v := func(fault bool) SliceRecord {
		rec := SliceRecord{Violated: true, QoSMs: 1, P99Ms: 2}
		if fault {
			rec.FaultKinds = []string{"core-failstop"}
		}
		return rec
	}
	ok := SliceRecord{QoSMs: 1, P99Ms: 0.5}
	deg := SliceRecord{QoSMs: 1, P99Ms: 0.5, Degraded: true}

	r := &Result{Slices: []SliceRecord{
		ok,       // clean
		v(true),  // fault hits: chain starts
		v(true),  //
		v(false), // fault over, still violating: chain continues
		ok,       // recovered
		v(false), // violation with no fault: not attributed
		deg,      //
	}}
	if got := r.RecoverySlices(); got != 3 {
		t.Fatalf("RecoverySlices = %d, want 3", got)
	}
	if got := r.FaultAttributedViolations(); got != 3 {
		t.Fatalf("FaultAttributedViolations = %d, want 3", got)
	}
	if got := r.DegradedOccupancy(); got != 1.0/7 {
		t.Fatalf("DegradedOccupancy = %v, want 1/7", got)
	}
	empty := &Result{}
	if empty.RecoverySlices() != 0 || empty.FaultAttributedViolations() != 0 || empty.DegradedOccupancy() != 0 {
		t.Fatal("empty result has nonzero resilience metrics")
	}
}
