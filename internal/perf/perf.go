// Package perf implements the analytical, interval-style core
// performance model that stands in for zsim cycle-level simulation
// (DESIGN.md §1). Given an application profile, a core configuration
// {FE,BE,LS}, an LLC way allocation and the current memory-latency
// inflation from bandwidth contention, it produces the core's IPC —
// from which the machine simulator derives batch throughput (BIPS) and
// latency-critical service rates.
//
// The model decomposes CPI into three additive components:
//
//	CPI = CPI_compute + CPI_branch + CPI_memory
//
// CPI_compute is bounded by the application's inherent ILP attenuated
// by per-section width sensitivities, and hard-capped by the narrower
// of the front-end and back-end plus the load/store width divided by
// the memory-operation fraction. CPI_branch charges each mispredicted
// branch a refill penalty that grows as the front-end narrows.
// CPI_memory charges L1 misses the LLC/DRAM latency mix given the miss
// curve at the allocated ways, divided by the effective memory-level
// parallelism — which the load/store queue and ROB sizes cap, both of
// which shrink when their sections are downsized (Table I scaling).
//
// These three terms give the model the properties the paper's runtime
// depends on: IPC is monotone in every section width and in cache ways,
// exhibits diminishing returns, and the binding bottleneck varies per
// application (Fig. 1).
//
// SurfaceTable (table.go) is the evaluator the simulator, baselines and
// experiments read, at any way count; Model.IPC is the pointwise form
// of the same formula.
package perf

import (
	"math"

	"cuttlesys/internal/config"
	"cuttlesys/internal/workload"
)

// Model evaluates the analytical performance model. The zero value is
// not useful; construct with New.
type Model struct {
	// Reconfigurable indicates whether cores pay the AnyCore frequency
	// penalty (§VII). Fixed-core baselines (core gating, asymmetric
	// multicores) run at the full base frequency.
	Reconfigurable bool
}

// New returns a Model for reconfigurable cores when reconfigurable is
// true, or for fixed cores otherwise.
func New(reconfigurable bool) *Model {
	return &Model{Reconfigurable: reconfigurable}
}

// FreqGHz returns the operating clock of this design point.
func (m *Model) FreqGHz() float64 {
	if m.Reconfigurable {
		return config.ReconfigFreqGHz()
	}
	return config.BaseFreqGHz
}

// branch refill penalty at full front-end width, in cycles. Narrower
// front-ends refill the window more slowly, inflating the penalty.
const baseBranchPenalty = 14.0

// IPC returns the instructions per cycle of app running alone on a core
// configured as c with the given LLC ways, under the given memory
// latency inflation factor (1 = uncontended DRAM; >1 models bandwidth
// queueing), at the model's clock. It is the closed form SurfaceTable
// stages: coreTerms and foldIPC are the only statement of the CPI
// formula, and a table lookup is bit-identical to this call. It panics
// on nil app; callers validate profiles upstream.
func (m *Model) IPC(app *workload.Profile, c config.Core, ways float64, memInflation float64) float64 {
	cpiCB, effMLP := coreTerms(app, c,
		math.Pow(c.FE.Scale(), app.FESens), math.Pow(c.BE.Scale(), app.BESens), math.Pow(c.LS.Scale(), app.LSSens))
	return foldIPC(cpiCB, effMLP, app.MemFrac*app.L1MissRate, app.MissRatio(ways), memInflation, m.FreqGHz())
}

// coreTerms returns the core-configuration terms of app's CPI on c:
// CPI_compute + CPI_branch, and the effective memory-level parallelism
// the memory component divides by. Neither depends on cache ways,
// inflation or clock, so SurfaceTable stages them once per (app, core).
// aFE, aBE and aLS are the sections' width attenuations
// Pow(width.Scale(), sensitivity); each depends on one section's width
// only, so the table evaluates nine per app rather than three per core.
func coreTerms(app *workload.Profile, c config.Core, aFE, aBE, aLS float64) (cpiCB, effMLP float64) {
	// --- compute component ---
	// Inherent ILP attenuated by narrowed sections, hard-capped by the
	// physical widths: the front-end can rename at most FE per cycle,
	// the back-end can issue at most BE, and memory operations must
	// flow through the LS section.
	ipcPeak := app.ILP * aFE * aBE * aLS
	widthCap := math.Min(float64(c.FE), float64(c.BE))
	if app.MemFrac > 0 {
		widthCap = math.Min(widthCap, float64(c.LS)/app.MemFrac)
	}
	if ipcPeak > widthCap {
		ipcPeak = widthCap
	}
	cpiCompute := 1 / ipcPeak

	// --- branch component ---
	// A narrower front-end refills the pipeline more slowly after a
	// flush; ROB drain also lengthens with occupancy, folded into the
	// same width factor.
	branchPenalty := baseBranchPenalty * (1 + 0.5*(1-c.FE.Scale()))
	cpiBranch := app.BrMPKI / 1000 * branchPenalty

	// Effective MLP: the application's inherent parallelism, capped by
	// the in-flight misses the LSQ can track and the window the ROB can
	// keep open — both scale with their section widths (Table I).
	lsqCap := 1 + float64(config.LSQSize(c.LS))/8.0
	robCap := 1 + float64(config.ROBSize(c.FE))/16.0
	effMLP = math.Min(app.MLP, math.Min(lsqCap, robCap))
	if effMLP <= 0 { // malformed profile (MLP ≤ 0): avoid minting Inf/NaN
		effMLP = 1e-9
	}
	return cpiCompute + cpiBranch, effMLP
}

// foldIPC adds the memory component to the staged core terms and
// inverts the CPI. memW is MemFrac·L1MissRate and missRatio the LLC
// miss ratio at the allocated ways; inflation below 1 clamps to 1.
// Memory latency is a wall-clock property, so the cycle counts of
// Table I (quoted at 4 GHz) scale with the clock: a slower core wastes
// fewer cycles per miss, which is why DVFS hurts memory-bound
// applications less than compute-bound ones.
//
//hot:path shared fold of every IPC evaluation; pure arithmetic
func foldIPC(cpiCB, effMLP, memW, missRatio, memInflation, freqGHz float64) float64 {
	if memInflation < 1 {
		memInflation = 1
	}
	cycleScale := freqGHz / config.BaseFreqGHz
	avgLat := (float64(config.L2Latency)*(1-missRatio) +
		float64(config.DRAMLatency)*missRatio*memInflation) * cycleScale
	// coreTerms already floors effMLP at 1e-9, so this guard keeps its
	// bits. It is a branch, not max(effMLP, 1e-9): Go's NaN- and
	// sign-exact float max sits on the table build's dependency chain.
	if effMLP < 1e-9 {
		effMLP = 1e-9
	}
	cpi := cpiCB + memW*avgLat/effMLP
	if cpi <= 0 { // degenerate profile: report zero throughput, not Inf
		return 0
	}
	return 1 / cpi
}

// QueryInstr returns the mean per-query instruction demand of a
// latency-critical service, calibrated so that the service's 16-core
// max-QPS knee (§VII-A) corresponds to SatUtil utilisation when every
// core runs the widest configuration with four LLC ways:
//
//	demand = SatUtil · 16 · IPC({6,6,6}, 4w) · freq / MaxQPS
//
// The original evaluation finds these knees empirically by sweeping
// offered load under zsim; here the calibration is inverted from the
// published knee points so the queueing behaviour around saturation
// matches the paper's operating range. It panics when app is not
// latency-critical.
func (m *Model) QueryInstr(app *workload.Profile) float64 {
	if !app.IsLC() {
		panic("perf: QueryInstr on a batch application")
	}
	if app.MaxQPS <= 0 {
		panic("perf: QueryInstr on a service without a max-QPS knee")
	}
	ipc := m.IPC(app, config.Widest, config.FourWays.Ways(), 1)
	return app.SatUtil * 16 * ipc * m.FreqGHz() * 1e9 / app.MaxQPS
}
