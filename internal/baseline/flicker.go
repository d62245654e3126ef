package baseline

import (
	"math"

	"cuttlesys/internal/config"
	"cuttlesys/internal/ga"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/power"
	"cuttlesys/internal/rbf"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/stats"
	"cuttlesys/internal/workload"
)

// Flicker reproduces the prior state of the art for reconfigurable
// multicores [18], evaluated the two ways §VIII-E describes:
//
// Mode (a): every application — including the latency-critical service
// — is profiled for 10 ms on each of the nine 3MM3 sample
// configurations (tail latency needs at least 10 ms per sample), the
// cubic-RBF surrogates predict all 27 core configurations, and a
// genetic algorithm picks the configuration mix; only ~8 ms of the
// 100 ms slice remains for steady state. The service spends tens of
// milliseconds on narrow configurations every slice, so QoS is
// violated by over an order of magnitude.
//
// Mode (b): Flicker manages only the batch applications; the LC
// service is pinned to {6,6,6}, which reduces the power available to
// batch jobs, and 1 ms samples suffice since only throughput and power
// are predicted. QoS violations shrink to ~1.5× — still present,
// because Flicker does not partition the LLC and its profiling churns
// the memory system every slice.
//
// Flicker explores core configurations only (27-point domain, no cache
// dimension) and leaves the LLC unpartitioned.
type Flicker struct {
	// ModeB selects evaluation mode (b); default is mode (a).
	ModeB bool

	lc           *workload.Profile
	batch        []*workload.Profile
	nCores       int
	lcCores      int
	design       []config.Core
	r            *rng.RNG
	profileNoise float64
	seed         uint64
	slice        int
	penaltyPower float64
}

// NewFlicker builds the baseline for machine m (reconfigurable cores).
func NewFlicker(m *sim.Machine, modeB bool, seed uint64) *Flicker {
	f := &Flicker{
		ModeB:        modeB,
		lc:           m.LC(),
		batch:        m.Batch(),
		nCores:       m.NCores(),
		design:       rbf.Design3MM3(),
		r:            rng.New(seed ^ 0xf11c4e12),
		profileNoise: 0.05,
		seed:         seed,
		penaltyPower: 2,
	}
	if f.lc != nil {
		f.lcCores = m.NCores() / 2
	}
	return f
}

// Name implements harness.Scheduler.
func (f *Flicker) Name() string {
	if f.ModeB {
		return "flicker-b"
	}
	return "flicker-a"
}

// sampleDur is the per-configuration profiling window: 10 ms in mode
// (a) (meaningful tail-latency samples), 1 ms in mode (b).
func (f *Flicker) sampleDur() float64 {
	if f.ModeB {
		return 0.001
	}
	return 0.010
}

// ProfilePhasesMulti visits all nine 3MM3 configurations.
func (f *Flicker) ProfilePhasesMulti(qps []float64, budgetW float64) []harness.Phase {
	phases := make([]harness.Phase, 0, len(f.design))
	for _, d := range f.design {
		a := sim.Uniform(len(f.batch), f.lc != nil, f.lcCores, d, config.OneWay)
		a.NoPartition = true
		if f.lc != nil && f.ModeB {
			a.LCCore = config.Widest // mode (b): service pinned
		}
		phases = append(phases, harness.Phase{Dur: f.sampleDur(), Alloc: a})
	}
	return phases
}

// DecideMulti fits the RBF surrogates from the nine samples and runs
// the GA over the 27-configuration domain (≈2 ms of scheduling
// overhead).
func (f *Flicker) DecideMulti(profile []sim.PhaseResult, qps []float64, budgetW float64) (sim.Allocation, float64) {
	f.slice++
	n := len(f.batch)
	const overhead = 0.002 // GA search time (§VIII-E)

	alloc := sim.Uniform(n, f.lc != nil, f.lcCores, config.Widest, config.OneWay)
	alloc.NoPartition = true
	if len(profile) < len(f.design) {
		return alloc, overhead
	}

	// Per-job surrogates over the 27 core configurations.
	bipsPred := make([][]float64, n)
	powerPred := make([][]float64, n)
	for i := 0; i < n; i++ {
		bipsSamples := make([]float64, len(f.design))
		powerSamples := make([]float64, len(f.design))
		for d := range f.design {
			bipsSamples[d] = sim.Measure(f.r, profile[d].BatchBIPS[i], f.profileNoise)
			powerSamples[d] = sim.Measure(f.r, profile[d].BatchPowerW[i], f.profileNoise)
		}
		bipsPred[i] = f.predict(bipsSamples)
		powerPred[i] = f.predict(powerSamples)
	}

	// Latency-critical service configuration.
	lcPower := 0.0
	if f.lc != nil {
		if f.ModeB {
			alloc.LCCore = config.Widest
			lcPower = profile[0].LC[0].CorePowerW
		} else {
			latSamples := make([]float64, len(f.design))
			powSamples := make([]float64, len(f.design))
			for d := range f.design {
				p99 := stats.P99(profile[d].LC[0].Sojourns) * 1e3
				latSamples[d] = math.Log(math.Max(p99, 1e-3))
				powSamples[d] = profile[d].LC[0].CorePowerW
			}
			latPred := f.predict(latSamples)
			powPred := f.predict(powSamples)
			bestIdx := config.Widest.Index()
			bestPow := math.Inf(1)
			for j := 0; j < config.NumCoreConfigs; j++ {
				if math.Exp(latPred[j]) <= 0.8*f.lc.QoSTargetMs && powPred[j] < bestPow {
					bestIdx, bestPow = j, powPred[j]
				}
			}
			alloc.LCCore = config.CoreByIndex(bestIdx)
			lcPower = powPred[bestIdx]
		}
	}

	// GA over batch core configurations.
	fixed := fixedChipPower(f.nCores) + float64(f.lcCores)*lcPower
	obj := func(x []int) float64 {
		logSum, pw := 0.0, fixed
		for i, j := range x {
			logSum += math.Log(math.Max(bipsPred[i][j], 1e-9))
			pw += math.Max(powerPred[i][j], power.GatedCoreW)
		}
		v := math.Exp(logSum / float64(n))
		if over := pw - budgetW; over > 0 {
			v -= f.penaltyPower * over
		}
		return v
	}
	res := ga.Search(obj, ga.Params{
		Dims:       n,
		NumConfigs: config.NumCoreConfigs,
		Seed:       f.seed + uint64(f.slice)*104729,
	})
	for i, j := range res.Best {
		alloc.Batch[i].Core = config.CoreByIndex(j)
	}

	// Budget backstop: gate in descending predicted power.
	est := func() float64 {
		total := fixed
		for i, b := range alloc.Batch {
			if b.Gated {
				total += power.GatedCoreW
			} else {
				total += powerPred[i][b.Core.Index()]
			}
		}
		return total
	}
	for est() > budgetW*1.02 {
		worst, wi := 0.0, -1
		for i, b := range alloc.Batch {
			if b.Gated {
				continue
			}
			if p := powerPred[i][b.Core.Index()]; p > worst {
				worst, wi = p, i
			}
		}
		if wi < 0 {
			break
		}
		alloc.Batch[wi].Gated = true
	}
	return alloc, overhead
}

// predict fits a cubic RBF on the nine samples and evaluates all 27
// configurations, falling back to nearest-sample values if the fit is
// singular.
func (f *Flicker) predict(samples []float64) []float64 {
	s, err := rbf.Fit(f.design, samples)
	if err != nil {
		out := make([]float64, config.NumCoreConfigs)
		for j := range out {
			out[j] = samples[0]
		}
		return out
	}
	return s.PredictAll()
}

// EndSliceMulti implements harness.Scheduler.
func (*Flicker) EndSliceMulti(steady sim.PhaseResult, qps []float64) {}

var _ harness.Scheduler = (*Flicker)(nil)
