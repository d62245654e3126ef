// Package experiments reproduces every table and figure of the paper's
// evaluation (§VIII). Each experiment is a plain function returning
// structured rows, so the cuttlesys command (`cuttlesys paper <row>`),
// the root benchmark suite and downstream users can all regenerate the
// paper's results and compare shapes. See EXPERIMENTS.md for the
// paper-vs-measured record.
package experiments

import (
	"fmt"
	"sort"

	"cuttlesys/internal/baseline"
	"cuttlesys/internal/core"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// Policy names used across the comparison experiments.
const (
	PolicyNoGating     = "no-gating"
	PolicyCoreGating   = "core-gating"
	PolicyCoreGatingWP = "core-gating+wp"
	PolicyAsymmOracle  = "asymm-oracle"
	PolicyAsymm5050    = "asymm-50-50"
	PolicyFlickerA     = "flicker-a"
	PolicyFlickerB     = "flicker-b"
	PolicyCuttleSys    = "cuttlesys"
	// PolicyCuttleSysUnhardened is CuttleSys with its resilience guards
	// off (core.Params.DisableResilience): the trusting control of the
	// resilience report.
	PolicyCuttleSysUnhardened = "cuttlesys-unhardened"
	// PolicyDVFS is the maxBIPS per-core DVFS extension (§II-A1) — not
	// part of the paper's Fig. 5c comparison set, available for
	// extended sweeps.
	PolicyDVFS = "dvfs-maxbips"
)

// policyDef is one row of the policy table: a policy's name, whether
// it runs on reconfigurable cores (and so pays the AnyCore penalties),
// and how it schedules a machine. The scheduler seed arrives as p.Seed;
// only CuttleSys reads the rest of p.
type policyDef struct {
	name           string
	reconfigurable bool
	scheduler      func(m *sim.Machine, p core.Params) harness.Scheduler
}

// policies is the one policy table, in the order Policies lists it.
var policies = []policyDef{
	{PolicyCuttleSys, true, func(m *sim.Machine, p core.Params) harness.Scheduler { return core.New(m, p) }},
	{PolicyCuttleSysUnhardened, true, func(m *sim.Machine, p core.Params) harness.Scheduler {
		p.DisableResilience = true
		return core.New(m, p)
	}},
	{PolicyNoGating, false, func(m *sim.Machine, _ core.Params) harness.Scheduler { return baseline.NewNoGating(m) }},
	{PolicyCoreGating, false, func(m *sim.Machine, p core.Params) harness.Scheduler {
		return baseline.NewCoreGating(m, baseline.DescendingPower, false, p.Seed)
	}},
	{PolicyCoreGatingWP, false, func(m *sim.Machine, p core.Params) harness.Scheduler {
		return baseline.NewCoreGating(m, baseline.DescendingPower, true, p.Seed)
	}},
	{PolicyAsymmOracle, false, func(m *sim.Machine, _ core.Params) harness.Scheduler { return baseline.NewAsymmetric(m, true) }},
	{PolicyAsymm5050, false, func(m *sim.Machine, _ core.Params) harness.Scheduler { return baseline.NewAsymmetric(m, false) }},
	{PolicyFlickerA, true, func(m *sim.Machine, p core.Params) harness.Scheduler { return baseline.NewFlicker(m, false, p.Seed) }},
	{PolicyFlickerB, true, func(m *sim.Machine, p core.Params) harness.Scheduler { return baseline.NewFlicker(m, true, p.Seed) }},
	{PolicyDVFS, false, func(m *sim.Machine, p core.Params) harness.Scheduler { return baseline.NewDVFS(m, p.Seed) }},
}

// Policies lists every policy name RunPolicy runs: the names the sim
// command's help and the unknown-policy error give.
var Policies = func() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.name
	}
	return names
}()

// lookupPolicy returns the row of the policy table named name.
func lookupPolicy(name string) (policyDef, error) {
	for _, p := range policies {
		if p.name == name {
			return p, nil
		}
	}
	return policyDef{}, fmt.Errorf("experiments: unknown policy %q: one of %v", name, Policies)
}

// ComparisonPolicies are the Fig. 5c bars, in presentation order.
var ComparisonPolicies = []string{
	PolicyCoreGating, PolicyCoreGatingWP, PolicyAsymmOracle, PolicyCuttleSys,
}

// Setup parameterises a comparison experiment. Zero values select a
// fast smoke-scale run; the paper-scale settings are documented on
// each field.
type Setup struct {
	// Seed drives mix construction and all stochastic components.
	Seed uint64
	// Services to evaluate; default all five TailBench services.
	Services []string
	// MixesPerService is the number of SPEC mixes per service
	// (default 2; the paper uses 10 for 50 total mixes).
	MixesPerService int
	// Slices per run (default 10 = 1 s, as in §VIII-C).
	Slices int
	// LoadFrac is the LC offered load (default 0.8, the paper's
	// near-saturation operating point).
	LoadFrac float64
	// Caps are the power-cap fractions (default 0.9…0.5, Fig. 5c).
	Caps []float64
}

func (s Setup) withDefaults() Setup {
	if len(s.Services) == 0 {
		for _, p := range workload.TailBench() {
			s.Services = append(s.Services, p.Name)
		}
	}
	if s.MixesPerService == 0 {
		s.MixesPerService = 2
	}
	if s.Slices == 0 {
		s.Slices = 10
	}
	if s.LoadFrac == 0 {
		s.LoadFrac = 0.8
	}
	if len(s.Caps) == 0 {
		s.Caps = []float64{0.9, 0.8, 0.7, 0.6, 0.5}
	}
	return s
}

// cell is one single-machine run. The machine hosts service beside a
// 16-job batch mix drawn with seed mix from the jobs outside the
// runtime's training split, and is itself seeded with mix; the policy's
// scheduler is seeded with seed. The run lasts slices timeslices under
// the load and budget patterns and, when faults is set, that injector.
// tweak, when set, adjusts the CuttleSys parameters: the searcher,
// accuracy tracking, the ablation switches.
type cell struct {
	policy, service string
	mix, seed       uint64
	slices          int
	load            harness.LoadPattern
	budget          harness.BudgetPattern
	faults          harness.FaultInjector
	tweak           func(*core.Params)
}

// run builds the cell's machine and scheduler and runs them. It
// returns the scheduler too, for callers that read its state after the
// run.
func (c cell) run() (*harness.Result, harness.Scheduler, error) {
	lc, err := workload.ByName(c.service)
	if err != nil {
		return nil, nil, err
	}
	pol, err := lookupPolicy(c.policy)
	if err != nil {
		return nil, nil, err
	}
	_, pool := workload.SplitTrainTest(1, 16)
	m := sim.New(sim.Spec{
		Seed:           c.mix,
		LC:             lc,
		Batch:          workload.Mix(c.mix, pool, 16),
		Reconfigurable: pol.reconfigurable,
	})
	p := core.Params{Seed: c.seed}
	if c.tweak != nil {
		c.tweak(&p)
	}
	sched := pol.scheduler(m, p)
	res, err := harness.RunFaulted(m, sched, c.slices, c.load, c.budget, c.faults)
	return res, sched, err
}

// RunPolicy runs the named policy on one machine: service beside the
// batch mix drawn with mixSeed, the scheduler seeded with seed, for
// slices timeslices at constant load and power cap capFrac, under
// faults when it is not nil. It is the run behind `cuttlesys sim` and
// every cell of `cuttlesys report resilience`. An unknown service or
// policy is an error; the latter lists Policies.
func RunPolicy(policy, service string, mixSeed, seed uint64, slices int, load, capFrac float64, faults harness.FaultInjector) (*harness.Result, error) {
	res, _, err := cell{
		policy: policy, service: service, mix: mixSeed, seed: seed, slices: slices,
		load: harness.ConstantLoad(load), budget: harness.ConstantBudget(capFrac), faults: faults,
	}.run()
	return res, err
}

// eachMix calls f on every (service, mix seed) pair of s, services in
// order and mix i of each seeded s.Seed + 31i + 7, stopping at the
// first error.
func (s Setup) eachMix(f func(service string, mix uint64) error) error {
	for _, svc := range s.Services {
		for i := 0; i < s.MixesPerService; i++ {
			if err := f(svc, s.Seed+uint64(i)*31+7); err != nil {
				return err
			}
		}
	}
	return nil
}

// cell is policy's run on one mix of s at power cap capFrac: the
// scheduler seeded s.Seed + mix, s.Slices timeslices at constant load
// s.LoadFrac.
func (s Setup) cell(policy, service string, mix uint64, capFrac float64) cell {
	return cell{
		policy: policy, service: service, mix: mix, seed: s.Seed + mix, slices: s.Slices,
		load: harness.ConstantLoad(s.LoadFrac), budget: harness.ConstantBudget(capFrac),
	}
}

// tally aggregates one policy's runs over the mixes of a setup.
type tally struct {
	instrB     float64 // batch instructions, billions, summed over runs
	violations int     // slices in which some service missed QoS
	worstRatio float64 // worst p99/QoS of any slice
	worstP99Ms float64 // worst p99 of any slice
	gmeanBIPS  float64 // per-run mean gmean BIPS, averaged over runs
}

// sweep runs policy at power cap capFrac on every mix of s, adjusting
// the CuttleSys parameters with tweak when it is set, and tallies the
// runs.
func (s Setup) sweep(policy string, capFrac float64, tweak func(*core.Params)) (tally, error) {
	var t tally
	gmean, n := 0.0, 0
	err := s.eachMix(func(svc string, mix uint64) error {
		c := s.cell(policy, svc, mix, capFrac)
		c.tweak = tweak
		res, _, err := c.run()
		if err != nil {
			return err
		}
		t.instrB += res.TotalInstrB()
		t.violations += res.QoSViolations()
		if r := res.WorstP99Ratio(); r > t.worstRatio {
			t.worstRatio = r
		}
		for _, rec := range res.Slices {
			if rec.P99Ms > t.worstP99Ms {
				t.worstP99Ms = rec.P99Ms
			}
		}
		gmean += res.MeanGmeanBIPS()
		n++
		return nil
	})
	t.gmeanBIPS = gmean / float64(n)
	return t, err
}

// noGatingInstr is the batch instructions the no-gating reference
// executes over the mixes of s, every core at the widest configuration
// and the budget ignored: the denominator of the relative instructions
// Fig. 5c and §VIII-E report.
func (s Setup) noGatingInstr() (float64, error) {
	t, err := s.sweep(PolicyNoGating, 10, nil) // a cap of 10× is no cap
	return t.instrB, err
}

// sortedKeys returns map keys in sorted order for stable output.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
