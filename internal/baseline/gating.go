package baseline

import (
	"math"

	"cuttlesys/internal/config"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/power"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/ucp"
	"cuttlesys/internal/workload"
)

// GatingPolicy selects which batch cores to power off (§VII-B).
type GatingPolicy int

// The four core-selection orders the paper explores; descending power
// performed best and is the paper's (and this package's) default.
const (
	DescendingPower GatingPolicy = iota
	AscendingPower
	AscendingBIPSPerWatt
	AscendingBIPS
)

// String implements fmt.Stringer.
func (p GatingPolicy) String() string {
	switch p {
	case DescendingPower:
		return "desc-power"
	case AscendingPower:
		return "asc-power"
	case AscendingBIPSPerWatt:
		return "asc-bips-per-watt"
	case AscendingBIPS:
		return "asc-bips"
	}
	return "unknown"
}

// CoreGating is the core-level gating baseline (§VII-B): fixed
// (non-reconfigurable) cores, whole-core power gating to meet the
// budget. Cores hosting the latency-critical service are never gated.
// It profiles each job for one 1 ms sample per slice and gates batch
// cores by the configured policy until the estimated chip power fits
// the budget; when gating the final core it searches the active cores
// for the one meeting the budget with the smallest slack.
type CoreGating struct {
	Policy GatingPolicy
	// WayPartition adds UCP LLC way-partitioning, available on real
	// cloud servers (§VII-B).
	WayPartition bool

	lc           *workload.Profile
	batch        []*workload.Profile
	curves       []ucp.Curve // UCP curve per batch job, tabulated once
	nCores       int
	lcCores      int
	profileNoise float64
	r            *rng.RNG
}

// NewCoreGating builds the baseline for machine m. The machine should
// be constructed with fixed cores (Spec.Reconfigurable = false).
func NewCoreGating(m *sim.Machine, policy GatingPolicy, wayPartition bool, seed uint64) *CoreGating {
	g := &CoreGating{
		Policy:       policy,
		WayPartition: wayPartition,
		lc:           m.LC(),
		batch:        m.Batch(),
		curves:       missCurves(m.Batch()),
		nCores:       m.NCores(),
		profileNoise: 0.05,
		r:            rng.New(seed ^ 0x5bf03635),
	}
	if g.lc != nil {
		g.lcCores = m.NCores() / 2
	}
	return g
}

// Name implements harness.Scheduler.
func (g *CoreGating) Name() string {
	if g.WayPartition {
		return "core-gating+wp"
	}
	return "core-gating"
}

// ProfilePhasesMulti takes the baseline's single 1 ms sample (§VIII-A1
// note: "even core-level gating incurs an overhead of 1 ms for one
// profiling period"). Fixed cores have only the widest configuration.
func (g *CoreGating) ProfilePhasesMulti(qps []float64, budgetW float64) []harness.Phase {
	a := g.baseAlloc(nil)
	return []harness.Phase{{Dur: 0.001, Alloc: a}}
}

// baseAlloc is the all-on allocation; gated marks jobs to power off.
func (g *CoreGating) baseAlloc(gated []bool) sim.Allocation {
	a := sim.Uniform(len(g.batch), g.lc != nil, g.lcCores, config.Widest, config.OneWay)
	for i := range a.Batch {
		if gated != nil && gated[i] {
			a.Batch[i].Gated = true
		}
	}
	if !g.WayPartition {
		a.NoPartition = true
	} else {
		ucpPartition(&a, g.lc, g.curves)
	}
	return a
}

// DecideMulti implements harness.Scheduler: estimate per-core power
// from the profiling sample and gate batch cores by policy until the
// chip fits the budget.
func (g *CoreGating) DecideMulti(profile []sim.PhaseResult, qps []float64, budgetW float64) (sim.Allocation, float64) {
	n := len(g.batch)
	pw := make([]float64, n)
	bips := make([]float64, n)
	lcPower := 0.0
	if len(profile) > 0 {
		pr := profile[len(profile)-1]
		for i := 0; i < n; i++ {
			pw[i] = sim.Measure(g.r, pr.BatchPowerW[i], g.profileNoise)
			bips[i] = sim.Measure(g.r, pr.BatchBIPS[i], g.profileNoise)
		}
		lcPower = pr.LCCorePowerW
	}

	gated := make([]bool, n)
	est := func() float64 {
		total := fixedChipPower(g.nCores) + float64(g.lcCores)*lcPower
		for i := 0; i < n; i++ {
			if gated[i] {
				total += power.GatedCoreW
			} else {
				total += pw[i]
			}
		}
		return total
	}

	for est() > budgetW {
		// If a single gating could get under budget, pick the active
		// core that lands there with the smallest slack (§VII-B).
		overshoot := est() - budgetW
		finalPick, finalSlack := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if gated[i] {
				continue
			}
			saved := pw[i] - power.GatedCoreW
			if saved >= overshoot {
				if slack := saved - overshoot; slack < finalSlack {
					finalSlack, finalPick = slack, i
				}
			}
		}
		if finalPick >= 0 {
			gated[finalPick] = true
			break
		}
		pick := g.pick(gated, pw, bips)
		if pick < 0 {
			break // every batch core already gated
		}
		gated[pick] = true
	}
	return g.baseAlloc(gated), 0
}

// pick returns the next core to gate under the configured policy.
func (g *CoreGating) pick(gated []bool, pw, bips []float64) int {
	best := -1
	bestKey := 0.0
	for i := range gated {
		if gated[i] {
			continue
		}
		var key float64
		switch g.Policy {
		case DescendingPower:
			key = -pw[i]
		case AscendingPower:
			key = pw[i]
		case AscendingBIPSPerWatt:
			key = bips[i] / math.Max(pw[i], 1e-9)
		case AscendingBIPS:
			key = bips[i]
		}
		if best < 0 || key < bestKey {
			best, bestKey = i, key
		}
	}
	return best
}

// EndSliceMulti implements harness.Scheduler.
func (*CoreGating) EndSliceMulti(steady sim.PhaseResult, qps []float64) {}

var _ harness.Scheduler = (*CoreGating)(nil)
