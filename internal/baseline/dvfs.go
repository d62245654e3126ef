package baseline

import (
	"math"

	"cuttlesys/internal/config"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/power"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// DVFSLevels are the per-core frequency steps available to the DVFS
// baseline, GHz. The voltage range is razor thin (power.DVFSVdd), so
// the lowest step saves far less power than width reconfiguration —
// the §II-A motivation for going beyond DVFS.
var DVFSLevels = []float64{4.0, 3.6, 3.2, 2.8, 2.4}

// DVFS implements the maxBIPS policy (Isci et al. [29], §II-A1): per
// slice it profiles each job once, then greedily assigns per-core DVFS
// levels that maximise total BIPS under the power budget. Cores
// hosting the latency-critical service stay at the top frequency to
// protect QoS; when even the lowest level cannot meet the budget,
// cores are gated in descending power order. Fixed (non-reconfigurable)
// cores; no way partitioning — DVFS is the incumbent technique the
// paper positions reconfiguration against.
type DVFS struct {
	lc      *workload.Profile
	batch   []*workload.Profile
	lcCores int
	r       *rng.RNG

	// The scheduler's own storage, valid until its next call: the one
	// profile phase (the same every slice), the decided allocation, and
	// each job's estimated BIPS and power at every level, job-major
	// (bips[i*len(DVFSLevels)+l]), with its chosen level.
	profile []harness.Phase
	alloc   sim.Allocation
	bips    []float64
	pw      []float64
	level   []int
}

// NewDVFS builds the baseline for machine m (fixed cores).
func NewDVFS(m *sim.Machine, seed uint64) *DVFS {
	n := len(m.Batch())
	d := &DVFS{
		lc:    m.LC(),
		batch: m.Batch(),
		r:     rng.New(seed ^ 0xd7f5),
		bips:  make([]float64, n*len(DVFSLevels)),
		pw:    make([]float64, n*len(DVFSLevels)),
		level: make([]int, n),
	}
	if d.lc != nil {
		d.lcCores = config.NumMachineCore / 2
	}
	a := sim.Uniform(n, d.lc != nil, d.lcCores, config.Widest, config.OneWay)
	a.NoPartition = true
	d.profile = []harness.Phase{{Dur: 0.001, Alloc: a}}
	return d
}

// Name implements harness.Scheduler.
func (*DVFS) Name() string { return "dvfs-maxbips" }

// ProfilePhasesMulti takes one 1 ms sample at the nominal frequency.
func (d *DVFS) ProfilePhasesMulti(qps []float64, budgetW float64) []harness.Phase {
	return d.profile
}

// DecideMulti implements maxBIPS: scale each profiled sample across
// the DVFS levels with the analytical f·V² law, then greedily
// downclock the cores with the least BIPS-per-watt-saved until the
// budget holds.
func (d *DVFS) DecideMulti(profile []sim.PhaseResult, qps []float64, budgetW float64) (sim.Allocation, float64) {
	n := len(d.batch)
	alloc := &d.alloc
	alloc.SetUniform(n, d.lc != nil, d.lcCores, config.Widest, config.OneWay)
	alloc.NoPartition = true
	if len(profile) == 0 {
		return *alloc, 0
	}
	pr := profile[len(profile)-1]

	// Per-job estimates at every level, scaled from the nominal sample:
	// BIPS ∝ f (to first order), power per the f·V² law.
	L := len(DVFSLevels)
	bips, pw, level := d.bips, d.pw, d.level
	clear(level)
	for i := 0; i < n; i++ {
		b0 := sim.Measure(d.r, pr.BatchBIPS[i], profileNoise)
		p0 := sim.Measure(d.r, pr.BatchPowerW[i], profileNoise)
		for l, f := range DVFSLevels {
			frac := f / config.BaseFreqGHz
			v := power.DVFSVdd(f) / power.DVFSVdd(config.BaseFreqGHz)
			bips[i*L+l] = b0 * frac
			// Split the sample into a leakage-like and dynamic-like
			// share (the model's widest-config proportions).
			pw[i*L+l] = p0 * (0.45*v + 0.55*frac*v*v)
		}
	}
	lcPower := 0.0
	if d.lc != nil {
		lcPower = pr.LC[0].CorePowerW
	}

	est := func() float64 {
		total := power.FixedChipW + float64(d.lcCores)*lcPower
		for i := 0; i < n; i++ {
			if alloc.Batch[i].Gated {
				total += power.GatedCoreW
				continue
			}
			total += pw[i*L+level[i]]
		}
		return total
	}

	// Greedy: repeatedly take the downclock step that costs the least
	// BIPS per watt saved.
	for est() > budgetW {
		best, bestCost := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if alloc.Batch[i].Gated || level[i] == L-1 {
				continue
			}
			at := i*L + level[i]
			dB := bips[at] - bips[at+1]
			dP := pw[at] - pw[at+1]
			if dP <= 0 {
				continue
			}
			if cost := dB / dP; cost < bestCost {
				bestCost, best = cost, i
			}
		}
		if best < 0 {
			break // every core at the floor; gate below
		}
		level[best]++
	}
	// Voltage floor reached and still over budget: gate whole cores in
	// descending power, as the gating baseline does.
	for est() > budgetW {
		worst, wi := 0.0, -1
		for i := 0; i < n; i++ {
			if alloc.Batch[i].Gated {
				continue
			}
			if p := pw[i*L+level[i]]; p > worst {
				worst, wi = p, i
			}
		}
		if wi < 0 {
			break
		}
		alloc.Batch[wi].Gated = true
	}

	for i := range alloc.Batch {
		if !alloc.Batch[i].Gated {
			alloc.Batch[i].FreqGHz = DVFSLevels[level[i]]
		}
	}
	return *alloc, 0
}

// EndSliceMulti implements harness.Scheduler.
func (*DVFS) EndSliceMulti(steady sim.PhaseResult, qps []float64) {}

var _ harness.Scheduler = (*DVFS)(nil)
