package ctrlplane_test

import (
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/ctrlplane"
	"cuttlesys/internal/fault"
	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// staticScheduler applies one fixed allocation — cheap enough to step
// a managed fleet through long drills.
type staticScheduler struct {
	alloc    sim.Allocation
	overhead float64
}

func (s *staticScheduler) Name() string                               { return "static" }
func (s *staticScheduler) ProfilePhases(_, _ float64) []harness.Phase { return nil }
func (s *staticScheduler) Decide(_ []sim.PhaseResult, _, _ float64) (sim.Allocation, float64) {
	return s.alloc, s.overhead
}
func (s *staticScheduler) EndSlice(sim.PhaseResult, float64) {}

// buildSpec assembles one machine for the managed fleet.
func buildSpec(t *testing.T, seed uint64, inj harness.FaultInjector) fleet.NodeSpec {
	t.Helper()
	lc, err := workload.ByName("silo")
	if err != nil {
		t.Fatal(err)
	}
	_, pool := workload.SplitTrainTest(1, 16)
	m := sim.New(sim.Spec{
		Seed: seed, LC: lc,
		Batch:          workload.Mix(seed, pool, 8),
		Reconfigurable: true,
	})
	s := &staticScheduler{
		alloc:    sim.Uniform(8, true, 16, config.Widest, config.OneWay),
		overhead: 0.002,
	}
	return fleet.NodeSpec{Machine: m, Scheduler: harness.Single(s), Injector: inj}
}

// buildSpecs assembles n machines with seeds from one stream.
func buildSpecs(t *testing.T, n int, inj map[int]harness.FaultInjector) []fleet.NodeSpec {
	t.Helper()
	seeds := fleet.Seeds(42, n)
	specs := make([]fleet.NodeSpec, n)
	for i := range specs {
		specs[i] = buildSpec(t, seeds[i], inj[i])
	}
	return specs
}

// provisioner is the scale-up / replacement factory.
func provisioner(t *testing.T) func(id int, seed uint64) (fleet.NodeSpec, error) {
	return func(id int, seed uint64) (fleet.NodeSpec, error) {
		return buildSpec(t, seed, nil), nil
	}
}

// failoverManager assembles the canonical failover drill: four
// machines, machine 1 fail-stopped from t = 0.5 for the rest of the
// run, replacement enabled.
func failoverManager(t *testing.T, workers int) *ctrlplane.Manager {
	t.Helper()
	inj := map[int]harness.FaultInjector{
		1: fault.MustSchedule(7,
			fault.Event{Kind: fault.CoreFailStop, Start: 0.5, End: 1e9, Cores: 6}),
	}
	m, err := ctrlplane.New(ctrlplane.Config{
		Fleet: fleet.Config{Router: fleet.Uniform{}, Workers: workers},
		Scale: ctrlplane.ScaleConfig{
			Provision:      provisioner(t),
			ReplaceEvicted: true,
			Seed:           99,
		},
	}, buildSpecs(t, 4, inj)...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFailoverDrill is the acceptance scenario: a fail-stopped machine
// is quarantined within the debounce window, receives zero traffic
// from then on while keeping its power share, is force-evicted after
// the bounded drain, and its replacement joins, passes probation and
// ends the run healthy.
func TestFailoverDrill(t *testing.T) {
	m := failoverManager(t, 0)
	offered := 0.4 * m.Fleet().CapacityQPS()
	budget := 0.8 * m.Fleet().RefPowerW()
	var recs []ctrlplane.SliceRecord
	for i := 0; i < 30; i++ {
		rec, err := m.Step(offered, budget)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	res := m.Result()

	// Quarantined within the debounce window: the fault lands at slice
	// 5, telemetry lags one slice, and the two debounce stages add
	// SuspectAfter + QuarantineAfter bad slices.
	quarSlice := -1
	for _, tr := range res.Transitions {
		if tr.Machine == 1 && tr.To == "quarantined" {
			quarSlice = tr.Slice
			break
		}
	}
	if quarSlice < 0 || quarSlice > 5+1+2+2 {
		t.Fatalf("machine 1 quarantined at slice %d, want within debounce window (<= 10)", quarSlice)
	}

	// From quarantine on: zero routed traffic, full budget share kept.
	sawQuarBudget := false
	for i, rec := range recs {
		for k, id := range rec.Members {
			st := rec.States[k]
			if st == "quarantined" || st == "draining" {
				if rec.NodeQPS[k] != 0 {
					t.Fatalf("slice %d: %s machine %d routed %v qps", i, st, id, rec.NodeQPS[k])
				}
				if rec.NodeBudgetW[k] <= 0 {
					t.Fatalf("slice %d: %s machine %d lost its power share", i, st, id)
				}
				sawQuarBudget = true
			}
		}
	}
	if !sawQuarBudget {
		t.Fatal("drill never quarantined anything")
	}

	// Bounded drain then forced eviction, recorded in the membership
	// log; the replacement joins in the same reconcile.
	var evictSlice, joinSlice = -1, -1
	for _, ev := range res.Membership {
		if ev.Machine == 1 && ev.Event == "evict" {
			evictSlice = ev.Slice
		}
		if ev.Machine == 4 && ev.Event == "join" {
			joinSlice = ev.Slice
			if !strings.HasPrefix(ev.Reason, "replace:") {
				t.Fatalf("replacement join reason %q", ev.Reason)
			}
		}
	}
	if evictSlice < 0 {
		t.Fatal("fail-stopped machine never evicted")
	}
	if joinSlice != evictSlice {
		t.Fatalf("replacement joined at slice %d, eviction at %d", joinSlice, evictSlice)
	}

	// The replacement serves its very first slice (on probation, at a
	// reduced share), then passes probation within the window.
	first := -1
	for i, rec := range recs {
		for k, id := range rec.Members {
			if id != 4 {
				continue
			}
			if first < 0 {
				first = i
				if rec.States[k] != "probation" {
					t.Fatalf("replacement state %q on its first slice", rec.States[k])
				}
				if rec.NodeQPS[k] <= 0 {
					t.Fatal("replacement served no traffic on its first slice")
				}
				// Probation weight: a quarter of a healthy peer's share
				// under the uniform router (machine 0 is healthy).
				ratio := rec.NodeQPS[k] / rec.NodeQPS[0]
				if math.Abs(ratio-0.25) > 1e-9 {
					t.Fatalf("probation share ratio %v, want 0.25", ratio)
				}
			}
		}
	}
	if first < 0 {
		t.Fatal("replacement never stepped")
	}
	healthyAt := -1
	for _, tr := range res.Transitions {
		if tr.Machine == 4 && tr.To == "healthy" {
			healthyAt = tr.Slice
		}
	}
	// Valid telemetry appears one slice after the join; the probation
	// debounce adds ProbationAfter good slices.
	if healthyAt < 0 || healthyAt > joinSlice+2+4 {
		t.Fatalf("replacement healthy at slice %d (joined %d), want within probation window",
			healthyAt, joinSlice)
	}
	if got := res.Final[1]; got != "evicted" {
		t.Fatalf("machine 1 final state %q", got)
	}
	if got := res.Final[4]; got != "healthy" {
		t.Fatalf("replacement final state %q", got)
	}
	// Survivors were never disturbed.
	for _, id := range []int{0, 2, 3} {
		if got := res.Final[id]; got != "healthy" {
			t.Fatalf("survivor %d final state %q", id, got)
		}
	}
}

// drillJSON runs the failover drill and marshals its result.
func drillJSON(t *testing.T, workers int) []byte {
	t.Helper()
	m := failoverManager(t, workers)
	offered := 0.4 * m.Fleet().CapacityQPS()
	budget := 0.8 * m.Fleet().RefPowerW()
	for i := 0; i < 30; i++ {
		if _, err := m.Step(offered, budget); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := json.Marshal(m.Result())
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestManagedDeterminism extends the byte-determinism contract to the
// control plane: the full failover drill — quarantine, drain,
// eviction, replacement — produces identical results under serial and
// parallel stepping at any GOMAXPROCS.
func TestManagedDeterminism(t *testing.T) {
	serial := drillJSON(t, 1)
	parallel := drillJSON(t, 8)
	if string(serial) != string(parallel) {
		t.Fatal("managed drill depends on stepping parallelism")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	narrow := drillJSON(t, 8)
	if string(serial) != string(narrow) {
		t.Fatal("managed drill depends on GOMAXPROCS")
	}
}

// TestQuarantineReleaseProbation covers the recovery lane: a transient
// fault quarantines a machine, recovery releases it to probation at a
// reduced share, and sustained good slices restore full health.
func TestQuarantineReleaseProbation(t *testing.T) {
	// The fault clears before quarantine accumulates DrainAfter bad
	// slices, so the machine recovers instead of draining.
	inj := map[int]harness.FaultInjector{
		1: fault.MustSchedule(7,
			fault.Event{Kind: fault.CoreFailStop, Start: 0.3, End: 1.0, Cores: 6}),
	}
	m, err := ctrlplane.New(ctrlplane.Config{
		Fleet: fleet.Config{Router: fleet.Uniform{}},
	}, buildSpecs(t, 3, inj)...)
	if err != nil {
		t.Fatal(err)
	}
	offered := 0.4 * m.Fleet().CapacityQPS()
	budget := 0.8 * m.Fleet().RefPowerW()
	for i := 0; i < 30; i++ {
		if _, err := m.Step(offered, budget); err != nil {
			t.Fatal(err)
		}
	}
	res := m.Result()
	var path []string
	for _, tr := range res.Transitions {
		if tr.Machine == 1 {
			path = append(path, tr.To)
		}
	}
	want := []string{"suspect", "quarantined", "probation", "healthy"}
	if len(path) != len(want) {
		t.Fatalf("machine 1 transition path %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("machine 1 transition path %v, want %v", path, want)
		}
	}
	if got := res.Final[1]; got != "healthy" {
		t.Fatalf("machine 1 final state %q", got)
	}
	if got := m.Fleet().Size(); got != 3 {
		t.Fatalf("fleet size %d after recovery, want 3 (nothing evicted)", got)
	}
}

// TestAutoscaler drives the closed loop through both directions:
// sustained pressure adds a machine (once — the cooldown and the
// MaxMachines cap hold further growth), sustained idleness drains the
// newest machine without provisioning a replacement.
func TestAutoscaler(t *testing.T) {
	m, err := ctrlplane.New(ctrlplane.Config{
		Fleet: fleet.Config{Router: fleet.Uniform{}},
		Scale: ctrlplane.ScaleConfig{
			Provision:      provisioner(t),
			ReplaceEvicted: true, // must NOT fire for scale-down evictions
			MinMachines:    2,
			MaxMachines:    3,
			Cooldown:       5,
			Seed:           17,
		},
	}, buildSpecs(t, 2, nil)...)
	if err != nil {
		t.Fatal(err)
	}
	cap0 := m.Fleet().CapacityQPS()
	budget := 1.2 * m.Fleet().RefPowerW() // generous headroom

	// Pressure: util 0.9 against the original pair.
	for i := 0; i < 12; i++ {
		if _, err := m.Step(0.9*cap0, budget); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Fleet().Slots(); got != 3 {
		t.Fatalf("%d slots after sustained pressure, want 3 (one scale-up)", got)
	}
	joins := 0
	for _, ev := range m.Membership() {
		if ev.Event == "join" && ev.Reason == "scale-up" {
			joins++
		}
	}
	if joins != 1 {
		t.Fatalf("%d scale-up joins, want exactly 1", joins)
	}

	// Idle: util far below the band drains the newest healthy machine.
	for i := 0; i < 25; i++ {
		if _, err := m.Step(0.1*cap0, budget); err != nil {
			t.Fatal(err)
		}
	}
	res := m.Result()
	if got := res.Final[2]; got != "evicted" {
		t.Fatalf("scaled-up machine final state %q, want evicted", got)
	}
	for _, ev := range res.Membership {
		if ev.Machine == 2 && ev.Event == "evict" && ev.Reason != "scale-down" {
			t.Fatalf("scale-down eviction reason %q", ev.Reason)
		}
		if ev.Event == "join" && strings.HasPrefix(ev.Reason, "replace:") {
			t.Fatal("scale-down eviction provisioned a replacement")
		}
	}
	if got := m.Fleet().Size(); got != 2 {
		t.Fatalf("fleet size %d after scale-down, want 2", got)
	}
}

// TestScaleUpPowerHeadroomGate: without budget headroom the autoscaler
// must refuse to grow no matter how long the pressure lasts.
func TestScaleUpPowerHeadroomGate(t *testing.T) {
	m, err := ctrlplane.New(ctrlplane.Config{
		Fleet: fleet.Config{Router: fleet.Uniform{}},
		Scale: ctrlplane.ScaleConfig{Provision: provisioner(t), Seed: 17},
	}, buildSpecs(t, 2, nil)...)
	if err != nil {
		t.Fatal(err)
	}
	cap0 := m.Fleet().CapacityQPS()
	// Budget covers the current pair but not MinBudgetFrac of a grown
	// fleet: 0.5 * (refW + refW/2) = 0.75 refW.
	budget := 0.7 * m.Fleet().RefPowerW()
	for i := 0; i < 15; i++ {
		if _, err := m.Step(0.9*cap0, budget); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Fleet().Slots(); got != 2 {
		t.Fatalf("%d slots, want 2: scale-up must be blocked by the power-headroom gate", got)
	}
}

// TestAllQuarantinedShedsLoad: with every machine quarantined the mask
// routes nothing anywhere — the offered load is shed and recorded, and
// the control loop keeps running rather than crashing into a dead
// machine.
func TestAllQuarantinedShedsLoad(t *testing.T) {
	sched := func(seed uint64) harness.FaultInjector {
		return fault.MustSchedule(seed,
			fault.Event{Kind: fault.CoreFailStop, Start: 0, End: 1e9, Cores: 6})
	}
	inj := map[int]harness.FaultInjector{0: sched(3), 1: sched(4)}
	m, err := ctrlplane.New(ctrlplane.Config{Fleet: fleet.Config{}},
		buildSpecs(t, 2, inj)...)
	if err != nil {
		t.Fatal(err)
	}
	offered := 0.4 * m.Fleet().CapacityQPS()
	budget := 0.8 * m.Fleet().RefPowerW()
	shed := false
	for i := 0; i < 8; i++ {
		rec, err := m.Step(offered, budget)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Serving == 0 {
			shed = true
			if rec.UnroutedQPS != offered {
				t.Fatalf("slice %d: unrouted %v, offered %v", i, rec.UnroutedQPS, offered)
			}
			for k, q := range rec.NodeQPS {
				if q != 0 {
					t.Fatalf("slice %d: quarantined machine %d routed %v qps",
						i, rec.Members[k], q)
				}
			}
		}
	}
	if !shed {
		t.Fatal("fleet never reached the all-quarantined state")
	}
}

// TestNewRejectsNonFiniteThresholds guards the config boundary:
// withDefaults only replaces zero, so a NaN threshold leaking in from
// an upstream config would make every debounce comparison false and
// silently disable the autoscaler (or pin the probation weight).
// Construction must refuse it, naming the field.
func TestNewRejectsNonFiniteThresholds(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		cfg  ctrlplane.Config
	}{
		{"Scale.UpUtil", ctrlplane.Config{Scale: ctrlplane.ScaleConfig{UpUtil: nan}}},
		{"Scale.DownUtil", ctrlplane.Config{Scale: ctrlplane.ScaleConfig{DownUtil: nan}}},
		{"Scale.MinBudgetFrac", ctrlplane.Config{Scale: ctrlplane.ScaleConfig{MinBudgetFrac: math.Inf(1)}}},
		{"Health.ProbationWeight", ctrlplane.Config{Health: ctrlplane.HealthConfig{ProbationWeight: nan}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ctrlplane.New(tc.cfg, buildSpecs(t, 2, nil)...)
			if err == nil {
				t.Fatal("non-finite threshold accepted")
			}
			if !strings.Contains(err.Error(), tc.name) {
				t.Errorf("error %q does not name %s", err, tc.name)
			}
		})
	}
}
