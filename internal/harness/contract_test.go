package harness_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cuttlesys/internal/baseline"
	"cuttlesys/internal/config"
	"cuttlesys/internal/core"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// runNoPanic is a two-service harness.Run with a panic turned into a test
// failure: the driver's contract is a result or an error.
func runNoPanic(t *testing.T, m *sim.Machine, s harness.Scheduler, slices int) (res *harness.Result, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", s.Name(), r)
		}
	}()
	loads := []harness.LoadPattern{harness.ConstantLoad(0.6), harness.ConstantLoad(0.4)}
	return harness.Run(m, s, slices, loads, harness.ConstantBudget(0.8), nil, nil)
}

// contractMachines are the three shapes a scheduler can be handed: no
// latency-critical service (qps is empty), one, and two.
func contractMachines(t *testing.T) map[string]func() *sim.Machine {
	t.Helper()
	xapian, err := workload.ByName("xapian")
	if err != nil {
		t.Fatal(err)
	}
	silo, err := workload.ByName("silo")
	if err != nil {
		t.Fatal(err)
	}
	_, pool := workload.SplitTrainTest(1, 16)
	batch := workload.Mix(2, pool, 16)
	return map[string]func() *sim.Machine{
		"batch-only": func() *sim.Machine {
			return sim.New(sim.Spec{Seed: 2, Batch: batch, Reconfigurable: true})
		},
		"one-service": func() *sim.Machine {
			return sim.New(sim.Spec{Seed: 2, LC: xapian, Batch: batch, Reconfigurable: true})
		},
		"two-services": func() *sim.Machine {
			return sim.New(sim.Spec{Seed: 2, LC: xapian, ExtraLCs: []*workload.Profile{silo}, Batch: batch, Reconfigurable: true})
		},
	}
}

// TestEverySchedulerKeepsTheContract runs every policy the repository
// ships on every machine shape. The baselines manage the primary
// service only, so on a two-service machine their allocations miss
// the extra service: the driver must report that as an error naming
// the policy, where the machine used to panic. Everywhere else the run
// must succeed.
func TestEverySchedulerKeepsTheContract(t *testing.T) {
	policies := []struct {
		name  string
		build func(m *sim.Machine) harness.Scheduler
		multi bool // manages every service of a multi-service machine
	}{
		{"no-gating", func(m *sim.Machine) harness.Scheduler { return baseline.NewNoGating(m) }, false},
		{"core-gating", func(m *sim.Machine) harness.Scheduler {
			return baseline.NewCoreGating(m, baseline.AscendingBIPSPerWatt, false, 2)
		}, false},
		{"core-gating-wp", func(m *sim.Machine) harness.Scheduler {
			return baseline.NewCoreGating(m, baseline.DescendingPower, true, 2)
		}, false},
		{"asymm-50-50", func(m *sim.Machine) harness.Scheduler { return baseline.NewAsymmetric(m, false) }, false},
		{"asymm-oracle", func(m *sim.Machine) harness.Scheduler { return baseline.NewAsymmetric(m, true) }, false},
		{"dvfs", func(m *sim.Machine) harness.Scheduler { return baseline.NewDVFS(m, 2) }, false},
		{"flicker", func(m *sim.Machine) harness.Scheduler { return baseline.NewFlicker(m, false, 2) }, false},
		{"flicker-b", func(m *sim.Machine) harness.Scheduler { return baseline.NewFlicker(m, true, 2) }, false},
		{"cuttlesys", func(m *sim.Machine) harness.Scheduler { return core.New(m, core.Params{Seed: 2}) }, true},
	}
	machines := contractMachines(t)
	for _, shape := range []string{"batch-only", "one-service", "two-services"} {
		for _, p := range policies {
			t.Run(shape+"/"+p.name, func(t *testing.T) {
				m := machines[shape]()
				s := p.build(m)
				res, err := runNoPanic(t, m, s, 2)
				if shape == "two-services" && !p.multi {
					if err == nil || !strings.Contains(err.Error(), s.Name()) ||
						!strings.Contains(err.Error(), "extra-service") {
						t.Fatalf("want an error naming %s and the missing extra service, got %v", s.Name(), err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Slices) != 2 {
					t.Fatalf("%d slices recorded, want 2", len(res.Slices))
				}
			})
		}
	}
}

// badScheduler hands the driver one fixed allocation, overhead and
// profile plan every slice.
type badScheduler struct {
	alloc    sim.Allocation
	overhead float64
	profile  []harness.Phase
}

func (*badScheduler) Name() string { return "bad" }
func (b *badScheduler) ProfilePhasesMulti([]float64, float64) []harness.Phase {
	return b.profile
}
func (b *badScheduler) DecideMulti([]sim.PhaseResult, []float64, float64) (sim.Allocation, float64) {
	return b.alloc, b.overhead
}
func (*badScheduler) EndSliceMulti(sim.PhaseResult, []float64) {}

// TestDriverRejectsBadSchedulerValues pins the driver's three checks
// on what a scheduler returns: an allocation the machine cannot run, a
// profile window that is not a finite positive duration, and a
// decision overhead that is not finite and non-negative. Each is an
// error naming the scheduler, never a panic and never a record.
func TestDriverRejectsBadSchedulerValues(t *testing.T) {
	machines := contractMachines(t)
	good := func() sim.Allocation { return sim.Uniform(16, true, 16, config.Widest, config.OneWay) }
	short := good()
	short.Batch = short.Batch[:15]
	type badCase struct {
		name, want, shape string
		s                 *badScheduler
	}
	cases := []badCase{
		{"decided/batch-count", "batch assignments", "one-service", &badScheduler{alloc: short}},
		{"decided/extra-service", "extra-service", "two-services", &badScheduler{alloc: good()}},
		{"profile/batch-count", "batch assignments", "one-service",
			&badScheduler{alloc: good(), profile: []harness.Phase{{Dur: 0.001, Alloc: short}}}},
	}
	for _, dur := range []float64{0, -0.001, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases = append(cases, badCase{fmt.Sprintf("profile/duration=%v", dur), "non-positive duration", "one-service",
			&badScheduler{alloc: good(), profile: []harness.Phase{{Dur: 0.001, Alloc: good()}, {Dur: dur, Alloc: good()}}}})
	}
	for _, oh := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.01} {
		cases = append(cases, badCase{fmt.Sprintf("overhead=%v", oh), "decision overhead", "one-service",
			&badScheduler{alloc: good(), overhead: oh}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := machines[c.shape]()
			res, err := runNoPanic(t, m, c.s, 2)
			if err == nil || !strings.HasPrefix(err.Error(), "harness: bad: ") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want an error naming bad and %q, got %v (result %v)", c.want, err, res)
			}
			if strings.HasPrefix(c.name, "profile/") && m.Now() != 0 {
				t.Fatalf("a rejected profile plan ran %v s of phases", m.Now())
			}
		})
	}
}

// TestDriverRejectsNonFiniteEnvironment pins StepSlice's check on the
// environment it is handed: an offered load, load fraction or power
// budget that is NaN or infinite is an error before any phase runs,
// never a record (a NaN load used to score as a met QoS target, a NaN
// budget as within budget).
func TestDriverRejectsNonFiniteEnvironment(t *testing.T) {
	machines := contractMachines(t)
	alloc := sim.Uniform(16, true, 8, config.Widest, config.OneWay)
	alloc.ExtraLC = []sim.LCAssign{{Cores: 8, Core: config.Widest, Cache: config.OneWay}}
	type envCase struct {
		name, want string
		qps        []float64
		loadFrac   float64
		budgetW    float64
	}
	var cases []envCase
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases = append(cases,
			envCase{fmt.Sprintf("qps0=%v", v), "offered load", []float64{v, 1000}, 0.5, 150},
			envCase{fmt.Sprintf("qps1=%v", v), "offered load", []float64{1000, v}, 0.5, 150},
			envCase{fmt.Sprintf("loadFrac=%v", v), "load fraction", []float64{1000, 1000}, v, 150},
			envCase{fmt.Sprintf("budget=%v", v), "power budget", []float64{1000, 1000}, 0.5, v})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := machines["two-services"]()
			d, err := harness.NewDriver(m, &badScheduler{alloc: alloc}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("StepSlice panicked: %v", r)
				}
			}()
			rec, err := d.StepSlice(c.qps, c.loadFrac, c.budgetW)
			if err == nil || !strings.HasPrefix(err.Error(), "harness: ") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want an error naming the %s, got %v (record %+v)", c.want, err, rec)
			}
			if m.Now() != 0 {
				t.Fatalf("a rejected slice ran %v s of phases", m.Now())
			}
		})
	}

	// The same check reached through Run: a load pattern that returns
	// NaN is an error, not a slice recorded as meeting its QoS target.
	nan := func(float64) float64 { return math.NaN() }
	if res, err := harness.Run(machines["one-service"](), &badScheduler{alloc: sim.Uniform(16, true, 16, config.Widest, config.OneWay)},
		2, []harness.LoadPattern{nan}, harness.ConstantBudget(0.8), nil, nil); err == nil {
		t.Fatalf("Run with a NaN load pattern returned %v, want an error", res)
	}
}
