package fleet_test

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/fault"
	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// staticScheduler applies one fixed allocation with a configurable
// scheduling overhead — cheap enough to step many machines per test.
type staticScheduler struct {
	alloc    sim.Allocation
	overhead float64
}

func (s *staticScheduler) Name() string                                          { return "static" }
func (s *staticScheduler) ProfilePhasesMulti([]float64, float64) []harness.Phase { return nil }
func (s *staticScheduler) DecideMulti([]sim.PhaseResult, []float64, float64) (sim.Allocation, float64) {
	return s.alloc, s.overhead
}
func (s *staticScheduler) EndSliceMulti(sim.PhaseResult, []float64) {}

// testSpecs builds n identical machines with index-varied seeds and
// overheads (so serial and critical-path controller costs differ).
func testSpecs(t *testing.T, n int, inj map[int]harness.FaultInjector) []fleet.NodeSpec {
	t.Helper()
	lc, err := workload.ByName("silo")
	if err != nil {
		t.Fatal(err)
	}
	_, pool := workload.SplitTrainTest(1, 16)
	seeds := fleet.Seeds(42, n)
	specs := make([]fleet.NodeSpec, n)
	for i := range specs {
		m := sim.New(sim.Spec{
			Seed: seeds[i], LC: lc,
			Batch:          workload.Mix(seeds[i], pool, 8),
			Reconfigurable: true,
		})
		s := &staticScheduler{
			alloc:    sim.Uniform(8, true, 16, config.Widest, config.OneWay),
			overhead: 0.002 + 0.001*float64(i),
		}
		specs[i] = fleet.NodeSpec{Machine: m, Scheduler: s, Injector: inj[i]}
	}
	return specs
}

func runJSON(t *testing.T, workers, slices int) []byte {
	t.Helper()
	f, err := fleet.New(fleet.Config{Router: fleet.LeastLoaded{}, Arbiter: fleet.Headroom{}, Workers: workers},
		testSpecs(t, 4, nil)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(slices, harness.DiurnalLoad(0.3, 0.9, 1.0), harness.ConstantBudget(0.7))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestParallelMatchesSerial is the determinism contract: the merged
// fleet result is byte-identical whether machines are stepped by one
// goroutine or many, under any GOMAXPROCS.
func TestParallelMatchesSerial(t *testing.T) {
	serial := runJSON(t, 1, 6)
	parallel := runJSON(t, 8, 6)
	if string(serial) != string(parallel) {
		t.Fatal("parallel stepping changed the fleet result")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	wide := runJSON(t, 8, 6)
	if string(serial) != string(wide) {
		t.Fatal("GOMAXPROCS changed the fleet result")
	}
}

func TestFleetAccounting(t *testing.T) {
	n := 3
	f, err := fleet.New(fleet.Config{}, testSpecs(t, n, nil)...)
	if err != nil {
		t.Fatal(err)
	}
	slices := 5
	res, err := f.Run(slices, harness.ConstantLoad(0.5), harness.ConstantBudget(0.8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slices) != slices || len(res.Nodes) != n {
		t.Fatalf("got %d slices / %d nodes", len(res.Slices), len(res.Nodes))
	}
	if got := f.Now(); math.Abs(got-float64(slices)*harness.SliceDur) > 1e-9 {
		t.Fatalf("fleet clock %v after %d slices", got, slices)
	}
	for _, rec := range res.Slices {
		// Routed shares must conserve the offered load and the budget.
		sumQPS, sumW := 0.0, 0.0
		for i := range rec.NodeQPS {
			sumQPS += rec.NodeQPS[i]
			sumW += rec.NodeBudgetW[i]
		}
		if math.Abs(sumQPS-rec.OfferedQPS) > 1e-6*rec.OfferedQPS {
			t.Fatalf("shares %v sum to %v, offered %v", rec.NodeQPS, sumQPS, rec.OfferedQPS)
		}
		if math.Abs(sumW-rec.BudgetW) > 1e-6*rec.BudgetW {
			t.Fatalf("budget shares sum to %v, cap %v", sumW, rec.BudgetW)
		}
		if rec.PowerW <= 0 || rec.TotalInstrB <= 0 {
			t.Fatal("missing fleet accounting")
		}
		// Static overheads 2/3/4 ms: serial sum 9 ms, critical path 4 ms.
		if math.Abs(rec.OverheadSerialSec-0.009) > 1e-12 || math.Abs(rec.OverheadCritSec-0.004) > 1e-12 {
			t.Fatalf("overheads %v/%v", rec.OverheadSerialSec, rec.OverheadCritSec)
		}
	}
	if got, want := res.ModeledControllerSpeedup(), 0.009/0.004; math.Abs(got-want) > 1e-9 {
		t.Fatalf("modeled speedup %v, want %v", got, want)
	}
	for i, tele := range f.Telemetry() {
		if !tele.Valid || tele.Machine != i || tele.MaxQPS <= 0 {
			t.Fatalf("telemetry %d not populated: %+v", i, tele)
		}
	}
	for _, nr := range res.Nodes {
		if len(nr.Slices) != slices {
			t.Fatalf("node has %d slice records", len(nr.Slices))
		}
		if nr.Scheduler != "static" {
			t.Fatalf("node scheduler %q", nr.Scheduler)
		}
	}
}

func TestNewValidation(t *testing.T) {
	lc, err := workload.ByName("silo")
	if err != nil {
		t.Fatal(err)
	}
	_, pool := workload.SplitTrainTest(1, 16)
	mk := func(seed uint64, lcp *workload.Profile, extras []*workload.Profile) *sim.Machine {
		return sim.New(sim.Spec{Seed: seed, LC: lcp, ExtraLCs: extras, Batch: workload.Mix(seed, pool, 8), Reconfigurable: true})
	}
	sched := &staticScheduler{alloc: sim.Uniform(8, true, 16, config.Widest, config.OneWay)}

	if _, err := fleet.New(fleet.Config{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := fleet.New(fleet.Config{}, fleet.NodeSpec{Machine: nil, Scheduler: sched}); err == nil {
		t.Error("nil machine accepted")
	}
	if _, err := fleet.New(fleet.Config{}, fleet.NodeSpec{Machine: mk(1, lc, nil)}); err == nil {
		t.Error("nil scheduler accepted")
	}
	m := mk(1, lc, nil)
	if _, err := fleet.New(fleet.Config{},
		fleet.NodeSpec{Machine: m, Scheduler: sched},
		fleet.NodeSpec{Machine: m, Scheduler: sched}); err == nil {
		t.Error("shared simulator accepted")
	}
	if _, err := fleet.New(fleet.Config{}, fleet.NodeSpec{Machine: mk(1, nil, nil), Scheduler: sched}); err == nil {
		t.Error("batch-only machine accepted")
	}
	other, err := workload.ByName("xapian")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.New(fleet.Config{}, fleet.NodeSpec{Machine: mk(1, lc, []*workload.Profile{other}), Scheduler: sched}); err == nil {
		t.Error("multi-service machine accepted")
	}
}

// badRouter returns the wrong number of shares.
type badRouter struct{}

func (badRouter) Name() string                               { return "bad" }
func (badRouter) Route(float64, []fleet.Telemetry) []float64 { return []float64{1} }

func TestStepAndRunValidation(t *testing.T) {
	f, err := fleet.New(fleet.Config{}, testSpecs(t, 2, nil)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range [][2]float64{
		{-1, 100}, {math.NaN(), 100}, {math.Inf(1), 100}, {math.Inf(-1), 100},
		{100, 0}, {100, -1}, {100, math.NaN()}, {100, math.Inf(1)},
	} {
		want := fleet.CheckStep(in[0], in[1])
		if _, err := f.Step(in[0], in[1]); want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("Step(%v, %v): err %v, want the input rule's %v", in[0], in[1], err, want)
		}
	}
	if _, err := f.Run(0, harness.ConstantLoad(0.5), harness.ConstantBudget(0.7)); err == nil {
		t.Error("zero slices accepted")
	}
	if _, err := f.Run(3, nil, harness.ConstantBudget(0.7)); err == nil {
		t.Error("nil load pattern accepted")
	}
	if _, err := f.Run(3, harness.ConstantLoad(0.5), nil); err == nil {
		t.Error("nil budget pattern accepted")
	}

	fb, err := fleet.New(fleet.Config{Router: badRouter{}}, testSpecs(t, 2, nil)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.Step(100, 100); err == nil {
		t.Error("mis-sized router output accepted")
	}
}

func TestSeeds(t *testing.T) {
	a, b := fleet.Seeds(7, 16), fleet.Seeds(7, 16)
	seen := make(map[uint64]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Seeds not deterministic")
		}
		if seen[a[i]] {
			t.Fatalf("duplicate machine seed %d", a[i])
		}
		seen[a[i]] = true
	}
}

func tele(n int) []fleet.Telemetry {
	ts := make([]fleet.Telemetry, n)
	for i := range ts {
		ts[i] = fleet.Telemetry{
			Machine: i, MaxQPS: 1000, RefMaxPowerW: 100, Valid: true,
			QPS: 500, P99Ms: 2, QoSMs: 4, AvgPowerW: 60, BudgetW: 70,
		}
	}
	return ts
}

func TestRouters(t *testing.T) {
	ts := tele(3)
	uni := fleet.Uniform{}.Route(900, ts)
	for i, s := range uni {
		if math.Abs(s-300) > 1e-9 {
			t.Fatalf("uniform share %d = %v", i, s)
		}
	}

	// Least-loaded: a hot tail gets a smaller share.
	ts[1].P99Ms = 8 // at 2× target vs 0.5× for the others
	ll := fleet.LeastLoaded{}.Route(900, ts)
	if !(ll[1] < ll[0] && math.Abs(ll[0]-ll[2]) < 1e-9) {
		t.Fatalf("least-loaded shares %v", ll)
	}
	sum := ll[0] + ll[1] + ll[2]
	if math.Abs(sum-900) > 1e-6 {
		t.Fatalf("least-loaded shares %v sum to %v", ll, sum)
	}

	// QoS-aware: repeated violations decay a machine's share toward the
	// floor; recovery restores it.
	q := &fleet.QoSAware{}
	ts[1].Violated = true
	var shares []float64
	for i := 0; i < 6; i++ {
		shares = q.Route(900, ts)
	}
	if !(shares[1] < shares[0]/4) {
		t.Fatalf("qos-aware did not drain violating machine: %v", shares)
	}
	ts[1].Violated = false
	for i := 0; i < 20; i++ {
		shares = q.Route(900, ts)
	}
	if math.Abs(shares[1]-shares[0]) > 1e-9 {
		t.Fatalf("qos-aware did not restore recovered machine: %v", shares)
	}
}

// TestDivideOneShareIsWhole: a lone machine gets the whole offered
// load and the whole budget, not amount·w/w, which for 0.1 at weight 3
// is 0.10000000000000002. Every router and arbiter divides through the
// same rule, so each is checked.
func TestDivideOneShareIsWhole(t *testing.T) {
	one := []fleet.Telemetry{{MaxQPS: 3, RefMaxPowerW: 3}}
	for _, r := range []fleet.Router{fleet.Uniform{}, fleet.LeastLoaded{}, &fleet.QoSAware{}} {
		if got := r.Route(0.1, one); len(got) != 1 || got[0] != 0.1 {
			t.Errorf("%s: one share of 0.1 at weight 3 = %v, want exactly [0.1]", r.Name(), got)
		}
	}
	for _, a := range []fleet.Arbiter{fleet.Proportional{}, fleet.Headroom{}} {
		if got := a.Split(0.1, one); len(got) != 1 || got[0] != 0.1 {
			t.Errorf("%s: one share of 0.1 at weight 3 = %v, want exactly [0.1]", a.Name(), got)
		}
	}
}

func TestArbiters(t *testing.T) {
	ts := tele(2)
	ts[1].RefMaxPowerW = 300

	pr := fleet.Proportional{}.Split(200, ts)
	if math.Abs(pr[0]-50) > 1e-9 || math.Abs(pr[1]-150) > 1e-9 {
		t.Fatalf("proportional split %v", pr)
	}

	// Headroom: an idle machine releases watts to a loaded sibling.
	ts[1].RefMaxPowerW = 100
	ts[0].AvgPowerW, ts[0].BudgetW = 20, 100 // 20% demand
	ts[1].AvgPowerW, ts[1].BudgetW = 98, 100 // saturated
	hr := fleet.Headroom{}.Split(200, ts)
	if !(hr[0] < hr[1] && hr[0] > 0) {
		t.Fatalf("headroom split %v", hr)
	}
	// A stressed machine bids full reference power even with low draw.
	ts[0].Violated = true
	hr2 := fleet.Headroom{}.Split(200, ts)
	if hr2[0] <= hr[0] {
		t.Fatalf("stressed machine share did not grow: %v vs %v", hr2, hr)
	}

	// Degenerate telemetry falls back to an equal split.
	zero := []fleet.Telemetry{{}, {}}
	fb := fleet.Headroom{}.Split(200, zero)
	if math.Abs(fb[0]-100) > 1e-9 || math.Abs(fb[1]-100) > 1e-9 {
		t.Fatalf("degenerate fallback %v", fb)
	}
}

// TestDegradedNodeRouting attaches a fail-stop fault schedule to one
// machine of a QoS-aware fleet and requires the router to drain
// traffic from it while the fault is active.
func TestDegradedNodeRouting(t *testing.T) {
	inj, err := fault.NewSchedule(9, fault.Event{
		Kind: fault.CoreFailStop, Start: 0.2, End: 0.8, Cores: 7, BatchCores: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fleet.New(fleet.Config{Router: &fleet.QoSAware{}},
		testSpecs(t, 2, map[int]harness.FaultInjector{1: inj})...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(8, harness.ConstantLoad(0.35), harness.ConstantBudget(0.8))
	if err != nil {
		t.Fatal(err)
	}
	first := res.Slices[0]
	if math.Abs(first.NodeQPS[0]-first.NodeQPS[1]) > 1e-6 {
		t.Fatalf("pre-fault split not even: %v", first.NodeQPS)
	}
	// By the end of the fault window the faulty machine's share must
	// have collapsed relative to its healthy sibling.
	late := res.Slices[6]
	if late.NodeQPS[1] > late.NodeQPS[0]/2 {
		t.Fatalf("router did not drain faulty machine: %v", late.NodeQPS)
	}
}
