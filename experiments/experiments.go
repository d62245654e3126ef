// Package experiments reproduces every table and figure of the paper's
// evaluation (§VIII). Each experiment is a plain function returning
// structured rows, so the cuttlesys command (`cuttlesys paper <row>`),
// the root benchmark suite and downstream users can all regenerate the
// paper's results and compare shapes. See EXPERIMENTS.md for the
// paper-vs-measured record.
package experiments

import (
	"errors"
	"sort"

	"cuttlesys/internal/core"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/scenario"
	"cuttlesys/internal/workload"
	"cuttlesys/specs"
)

// Policy names used across the comparison experiments: rows of the
// scheduler registry (scenario.Schedulers).
const (
	PolicyNoGating            = "no-gating"
	PolicyCoreGating          = "core-gating"
	PolicyCoreGatingWP        = "core-gating+wp"
	PolicyAsymmOracle         = "asymm-oracle"
	PolicyAsymm5050           = "asymm-50-50"
	PolicyFlickerA            = "flicker-a"
	PolicyFlickerB            = "flicker-b"
	PolicyCuttleSys           = "cuttlesys"
	PolicyCuttleSysUnhardened = "cuttlesys-unhardened"
	PolicyDVFS                = "dvfs-maxbips"
)

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

// cell is one single-machine run: the sim library spec with clauses
// appended, policy as its scheduler, the batch mix seeded mix (none
// when alone, the spec's mix jobs=0), run seed seed, for slices
// timeslices at load and cap (zero keeps the spec's). tweak, when set,
// adjusts the CuttleSys parameters: the searcher, accuracy tracking,
// the ablation switches. collector, when set, traces the run.
type cell struct {
	policy, service string
	mix, seed       uint64
	slices          int
	load, cap       float64
	clauses         string
	alone           bool
	tweak           func(*core.Params)
	collector       obs.Collector
}

// uncapped is the budget clause of a reference run whose budget binds
// no policy: ten times the machine's reference power.
const uncapped = "budget constant rate=10 absolute"

// run compiles the cell's spec and runs its machine. It returns the
// scheduler too, for callers that read its state after the run.
func (c cell) run() (*harness.Result, harness.Scheduler, error) {
	if c.mix == 0 {
		// The machine would take its seed from the run seed's fleet
		// draw instead, and run another machine.
		return nil, nil, errors.New("experiments: mix seed 0 cannot pin a machine (a spec's mix seed 0 means unpinned); use a seed of at least 1")
	}
	src, err := specs.Source("sim")
	if err != nil {
		return nil, nil, err
	}
	sp, err := scenario.Parse([]byte(string(src) + "\n" + c.clauses))
	if err != nil {
		return nil, nil, err
	}
	sp.Policy.Scheduler, sp.Mix.Seed = c.policy, c.mix
	if c.alone {
		sp.Mix.Jobs = 0
	}
	comp, err := scenario.Compile(sp, scenario.Options{
		Service: c.service, Slices: c.slices, Load: c.load, Cap: c.cap, Seed: c.seed,
		Collector: c.collector,
	})
	if err != nil {
		return nil, nil, err
	}
	return comp.RunMachine(c.tweak)
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

// cell is base's run on one mix of s: service beside the batch mix
// seeded mix, the run seeded s.Seed + mix, s.Slices timeslices at load
// s.LoadFrac.
func (s Setup) cell(base cell, service string, mix uint64) cell {
	base.service, base.mix, base.seed, base.slices, base.load = service, mix, s.Seed+mix, s.Slices, s.LoadFrac
	return base
}

// tally aggregates one policy's runs over the mixes of a setup.
type tally struct {
	instrB     float64 // batch instructions, billions, summed over runs
	violations int     // slices in which some service missed QoS
	worstRatio float64 // worst p99/QoS of any slice
	worstP99Ms float64 // worst p99 of any slice
	gmeanBIPS  float64 // per-run mean gmean BIPS, averaged over runs
}

// sweep runs base on every mix of s and tallies the runs.
func (s Setup) sweep(base cell) (tally, error) {
	var t tally
	gmean, n := 0.0, 0
	err := s.eachMix(func(svc string, mix uint64) error {
		res, _, err := s.cell(base, svc, mix).run()
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
	t, err := s.sweep(cell{policy: PolicyNoGating, clauses: uncapped})
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
