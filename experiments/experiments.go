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

// Policies lists every policy NewPolicyMachine builds: the names the
// sim command's help and the unknown-policy error give.
var Policies = []string{
	PolicyCuttleSys, PolicyCuttleSysUnhardened, PolicyNoGating, PolicyCoreGating,
	PolicyCoreGatingWP, PolicyAsymmOracle, PolicyAsymm5050, PolicyFlickerA,
	PolicyFlickerB, PolicyDVFS,
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
	// TrainSeed selects the offline training split (default 1).
	TrainSeed uint64
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
	if s.TrainSeed == 0 {
		s.TrainSeed = 1
	}
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

// machineFor builds the machine for one (service, mix) pair. Fixed-core
// designs (gating, asymmetric) disable the reconfiguration penalties.
func machineFor(service string, mixSeed, trainSeed uint64, reconfigurable bool) *sim.Machine {
	lc, err := workload.ByName(service)
	if err != nil {
		panic(err)
	}
	_, pool := workload.SplitTrainTest(trainSeed, 16)
	return sim.New(sim.Spec{
		Seed:           mixSeed,
		LC:             lc,
		Batch:          workload.Mix(mixSeed, pool, 16),
		Reconfigurable: reconfigurable,
	})
}

// reconfigurableFor reports whether a policy runs on reconfigurable
// cores (and therefore pays the AnyCore penalties).
func reconfigurableFor(policy string) bool {
	switch policy {
	case PolicyCuttleSys, PolicyCuttleSysUnhardened, PolicyFlickerA, PolicyFlickerB:
		return true
	}
	return false
}

// schedulerFor instantiates a policy on a machine.
func schedulerFor(policy string, m *sim.Machine, seed uint64) (harness.Scheduler, error) {
	switch policy {
	case PolicyNoGating:
		return baseline.NewNoGating(m), nil
	case PolicyCoreGating:
		return baseline.NewCoreGating(m, baseline.DescendingPower, false, seed), nil
	case PolicyCoreGatingWP:
		return baseline.NewCoreGating(m, baseline.DescendingPower, true, seed), nil
	case PolicyAsymmOracle:
		return baseline.NewAsymmetric(m, true), nil
	case PolicyAsymm5050:
		return baseline.NewAsymmetric(m, false), nil
	case PolicyFlickerA:
		return baseline.NewFlicker(m, false, seed), nil
	case PolicyFlickerB:
		return baseline.NewFlicker(m, true, seed), nil
	case PolicyDVFS:
		return baseline.NewDVFS(m, seed), nil
	case PolicyCuttleSys:
		return core.New(m, core.Params{Seed: seed, TrainSeed: 1}), nil
	case PolicyCuttleSysUnhardened:
		return core.New(m, core.Params{Seed: seed, TrainSeed: 1, DisableResilience: true}), nil
	}
	return nil, fmt.Errorf("experiments: unknown policy %q: one of %v", policy, Policies)
}

// NewPolicyMachine builds the machine for one (service, mix seed) pair,
// drawing the mix from the default training split, and the named
// policy's scheduler on it: the single-machine setup every comparison
// experiment runs. Fixed-core policies get a machine without the
// reconfiguration penalties.
func NewPolicyMachine(policy, service string, mixSeed, seed uint64) (*sim.Machine, harness.Scheduler, error) {
	if _, err := workload.ByName(service); err != nil {
		return nil, nil, err
	}
	m := machineFor(service, mixSeed, 1, reconfigurableFor(policy))
	sched, err := schedulerFor(policy, m, seed)
	if err != nil {
		return nil, nil, err
	}
	return m, sched, nil
}

// runOne executes one policy on one (service, mix, cap) cell.
func runOne(policy, service string, mixSeed uint64, s Setup, capFrac float64) (*harness.Result, error) {
	m := machineFor(service, mixSeed, s.TrainSeed, reconfigurableFor(policy))
	sched, err := schedulerFor(policy, m, s.Seed+mixSeed)
	if err != nil {
		return nil, err
	}
	return harness.Run(m, sched, s.Slices,
		harness.ConstantLoad(s.LoadFrac), harness.ConstantBudget(capFrac))
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
