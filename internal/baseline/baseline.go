// Package baseline implements every comparison policy of the paper's
// evaluation (§VII-B, §VII-C, §VIII-E):
//
//   - NoGating — all cores in the highest configuration with an
//     unpartitioned LLC; the Fig. 5c reference that ignores the power
//     budget.
//   - CoreGating — core-level gating on fixed (non-reconfigurable)
//     cores: whole cores are powered off to meet the budget, with four
//     selection policies and optional UCP way-partitioning. The paper
//     found descending-power selection best; that is the default.
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
	"cuttlesys/internal/power"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/ucp"
	"cuttlesys/internal/workload"
)

// fixedChipPower returns the LLC + uncore floor for an n-core machine.
func fixedChipPower(n int) float64 {
	return power.LLCWayW*config.LLCWays + power.UncorePerCoreW*float64(n)
}

// ucpPartition assigns the latency-critical service its QoS-sized
// allocation (four ways, the same cap CuttleSys uses, §VIII-A2) and
// partitions the remaining ways among the active batch jobs with the
// UCP lookahead. Gated jobs keep no ways. jobCurves holds one curve
// per batch job, from missCurves.
func ucpPartition(alloc *sim.Allocation, lc *workload.Profile, jobCurves []ucp.Curve) {
	budget := config.LLCWays
	if lc != nil && alloc.LCCores > 0 {
		alloc.LCCache = config.FourWays
		budget -= int(config.FourWays)
	}
	var (
		curves []ucp.Curve
		slots  []int
	)
	for i, b := range alloc.Batch {
		if b.Gated {
			continue
		}
		curves = append(curves, jobCurves[i])
		slots = append(slots, i)
	}
	if len(curves) == 0 {
		return
	}
	if len(curves) > budget {
		budget = len(curves) // degenerate: more jobs than ways
	}
	ways := ucp.Partition(curves, budget, 1)
	for k, i := range slots {
		alloc.Batch[i].Cache = config.CacheAlloc(ways[k])
	}
}

// missCurves returns each batch job's UCP curve with its miss ratio
// tabulated once at every integer way count up to config.LLCWays.
// ucp.Partition evaluates a curve only at integer ways no greater than
// ucpPartition's budget — at most config.LLCWays, or one way per job
// when there are more jobs than ways — so the table returns exactly
// the values MissRatio would, without its math.Pow on every decision.
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
	lc      *workload.Profile
	nBatch  int
	lcCores int
}

// NewNoGating builds the reference policy for machine m.
func NewNoGating(m *sim.Machine) *NoGating {
	ng := &NoGating{lc: m.LC(), nBatch: len(m.Batch())}
	if ng.lc != nil {
		ng.lcCores = m.NCores() / 2
	}
	return ng
}

// Name implements harness.Scheduler.
func (*NoGating) Name() string { return "no-gating" }

// ProfilePhasesMulti implements harness.Scheduler; the reference never
// profiles.
func (*NoGating) ProfilePhasesMulti(qps []float64, budgetW float64) []harness.Phase { return nil }

// DecideMulti implements harness.Scheduler.
func (ng *NoGating) DecideMulti(profile []sim.PhaseResult, qps []float64, budgetW float64) (sim.Allocation, float64) {
	a := sim.Uniform(ng.nBatch, ng.lc != nil, ng.lcCores, config.Widest, config.OneWay)
	a.NoPartition = true
	return a, 0
}

// EndSliceMulti implements harness.Scheduler.
func (*NoGating) EndSliceMulti(steady sim.PhaseResult, qps []float64) {}

var _ harness.Scheduler = (*NoGating)(nil)
