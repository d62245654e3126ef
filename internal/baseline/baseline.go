// Package baseline implements every comparison policy of the paper's
// evaluation (§VII-B, §VII-C, §VIII-E):
//
//   - NoGating — all cores in the highest configuration with an
//     unpartitioned LLC; the Fig. 5c reference that ignores the power
//     budget.
//   - CoreGating — core-level gating on fixed (non-reconfigurable)
//     cores: whole cores are powered off to meet the budget, with four
//     descending-power selection, which the paper found best of four
//     orders, and optional UCP way-partitioning.
//   - AsymmetricOracle — an oracle-like asymmetric multicore: big
//     ({6,6,6}) and little ({2,2,2}) fixed core types with the
//     per-slice big/little split chosen optimally using the true
//     models and zero migration overhead (§VII-C).
//   - Asymmetric5050 — the realistic fixed design: 16 big + 16 little.
//   - Flicker — the prior state of the art for reconfigurable
//     multicores [18]: 3MM3 sampling, cubic-RBF surrogate fitting and
//     a genetic-algorithm search, in both evaluation modes of §VIII-E.
package baseline

import (
	"cuttlesys/internal/config"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/ucp"
	"cuttlesys/internal/workload"
)

// profileNoise is the relative sigma of the baselines' 1 ms profiling
// samples (sim.Measure), the same as the runtime's.
const profileNoise = 0.05

// missCurves returns each batch job's UCP curve with its miss ratio
// tabulated once at every integer way count up to config.LLCWays.
// ucp.Partition evaluates a curve only at integer ways no greater than
// the budget of (*CoreGating).ucpPartition — at most config.LLCWays, or
// one way per job when there are more jobs than ways — so the table
// returns exactly the values MissRatio would, without its math.Pow on
// every decision.
func missCurves(batch []*workload.Profile) []ucp.Curve {
	curves := make([]ucp.Curve, len(batch))
	for i, app := range batch {
		tab := make([]float64, config.LLCWays+1)
		for w := range tab {
			tab[w] = app.MissRatio(float64(w))
		}
		curves[i] = ucp.Curve{
			MissRatio: func(ways float64) float64 { return tab[int(ways)] },
			Weight:    app.MemFrac * app.L1MissRate,
		}
	}
	return curves
}

// NoGating is the reference policy: every core at the widest
// configuration, LLC shared freely, power budget ignored.
type NoGating struct {
	alloc sim.Allocation // the one decision, built once
}

// NewNoGating builds the reference policy for machine m.
func NewNoGating(m *sim.Machine) *NoGating {
	hasLC := m.LC() != nil
	lcCores := 0
	if hasLC {
		lcCores = config.NumMachineCore / 2
	}
	ng := &NoGating{alloc: sim.Uniform(len(m.Batch()), hasLC, lcCores, config.Widest, config.OneWay)}
	ng.alloc.NoPartition = true
	return ng
}

// Name implements harness.Scheduler.
func (*NoGating) Name() string { return "no-gating" }

// ProfilePhasesMulti implements harness.Scheduler; the reference never
// profiles.
func (*NoGating) ProfilePhasesMulti(qps []float64, budgetW float64) []harness.Phase { return nil }

// DecideMulti implements harness.Scheduler.
func (ng *NoGating) DecideMulti(profile []sim.PhaseResult, qps []float64, budgetW float64) (sim.Allocation, float64) {
	return ng.alloc, 0
}

// EndSliceMulti implements harness.Scheduler.
func (*NoGating) EndSliceMulti(steady sim.PhaseResult, qps []float64) {}

var _ harness.Scheduler = (*NoGating)(nil)
