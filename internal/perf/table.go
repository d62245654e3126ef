package perf

import (
	"math"

	"cuttlesys/internal/config"
	"cuttlesys/internal/workload"
)

// SurfaceTable batches the performance model over a fixed application
// set (DESIGN.md §15). Construction stages every configuration-
// dependent subterm of IPCAtFreq that does not involve memory-latency
// inflation or clock frequency — the compute+branch CPI and effective
// MLP per (app, core config), the miss curve and misses-per-
// instruction per (app, way allocation), and the per-query instruction
// demand of latency-critical services. Those stages eliminate all
// math.Pow evaluation from the per-quantum path: a point lookup
// (IPCAt) folds the staged terms with the caller's inflation and
// frequency in a handful of multiplies, and Build renders the full
// (app, resource) grid of IPC/BIPS/service-time/DRAM-traffic surfaces
// for one inflation value.
//
// Every value a lookup produces is bit-identical to the corresponding
// Model call: the staged subterms are exactly the intermediates the
// pointwise model computes, cut at association boundaries of the
// original expressions, so the float64 operation sequence is
// unchanged. The equivalence tests in table_test.go assert exact
// equality over the full grid.
//
// A SurfaceTable is not safe for concurrent use: every read bumps the
// lookups counter, so callers that fan work out stage the values they
// need first (as sim.LCSurfaces does).
type SurfaceTable struct {
	m    *Model
	apps []*workload.Profile

	// Staged per-app terms (built once at construction).
	cpiCB        []float64 // (app, core): CPI_compute + CPI_branch
	effMLP       []float64 // (app, core): guarded effective MLP
	missRatio    []float64 // (app, wayIdx): LLC miss ratio
	missPerInstr []float64 // (app, wayIdx): MemFrac·L1MissRate·missRatio
	memW         []float64 // app: MemFrac·L1MissRate
	queryInstr   []float64 // app: per-query instructions (LC only, else 0)

	// Dense surfaces rendered by Build for one inflation value, at the
	// model's nominal frequency, indexed (app, resource).
	inflation float64
	ipc       []float64
	bips      []float64
	traffic   []float64
	svcSec    []float64

	builds  uint64
	lookups uint64
}

// NewSurfaceTable stages the model over apps. The staging pass is the
// only place the table evaluates math.Pow; it costs 27+4 Pow-bearing
// terms per app versus 4 per pointwise IPC call, so the table breaks
// even within a single 108-configuration sweep. Profiles must be
// validated upstream (as Machine and the characterisation sweeps do).
func NewSurfaceTable(m *Model, apps []*workload.Profile) *SurfaceTable {
	n := len(apps)
	t := &SurfaceTable{
		m:            m,
		apps:         apps,
		cpiCB:        make([]float64, n*config.NumCoreConfigs),
		effMLP:       make([]float64, n*config.NumCoreConfigs),
		missRatio:    make([]float64, n*config.NumCacheAllocs),
		missPerInstr: make([]float64, n*config.NumCacheAllocs),
		memW:         make([]float64, n),
		queryInstr:   make([]float64, n),
		ipc:          make([]float64, n*config.NumResources),
		bips:         make([]float64, n*config.NumResources),
		traffic:      make([]float64, n*config.NumResources),
		svcSec:       make([]float64, n*config.NumResources),
	}
	for a, app := range apps {
		// The staged expressions reproduce IPCAtFreq's intermediates
		// verbatim — same terms, same association — so a lookup's
		// float64 stream matches the pointwise model's exactly.
		t.memW[a] = app.MemFrac * app.L1MissRate
		for ci := 0; ci < config.NumCoreConfigs; ci++ {
			c := config.CoreByIndex(ci)
			sFE, sBE, sLS := c.FE.Scale(), c.BE.Scale(), c.LS.Scale()
			ipcPeak := app.ILP *
				math.Pow(sFE, app.FESens) *
				math.Pow(sBE, app.BESens) *
				math.Pow(sLS, app.LSSens)
			widthCap := math.Min(float64(c.FE), float64(c.BE))
			if app.MemFrac > 0 {
				widthCap = math.Min(widthCap, float64(c.LS)/app.MemFrac)
			}
			if ipcPeak > widthCap {
				ipcPeak = widthCap
			}
			cpiCompute := 1 / ipcPeak
			branchPenalty := baseBranchPenalty * (1 + 0.5*(1-sFE))
			cpiBranch := app.BrMPKI / 1000 * branchPenalty
			t.cpiCB[a*config.NumCoreConfigs+ci] = cpiCompute + cpiBranch

			lsqCap := 1 + float64(config.LSQSize(c.LS))/8.0
			robCap := 1 + float64(config.ROBSize(c.FE))/16.0
			effMLP := math.Min(app.MLP, math.Min(lsqCap, robCap))
			if effMLP <= 0 { // malformed profile (MLP ≤ 0): avoid minting Inf/NaN
				effMLP = 1e-9
			}
			t.effMLP[a*config.NumCoreConfigs+ci] = effMLP
		}
		for wi, alloc := range config.CacheAllocs {
			mr := app.MissRatio(alloc.Ways())
			t.missRatio[a*config.NumCacheAllocs+wi] = mr
			t.missPerInstr[a*config.NumCacheAllocs+wi] = t.memW[a] * mr
		}
		if app.IsLC() && app.MaxQPS > 0 {
			t.queryInstr[a] = m.QueryInstr(app)
		}
	}
	t.Build(1)
	return t
}

// Model returns the pointwise model the table was staged from — the
// fallback for non-canonical (LRU-shared fractional) way counts.
func (t *SurfaceTable) Model() *Model { return t.m }

// Apps returns the application set the table is staged over; the slice
// index is the appIdx every lookup takes.
func (t *SurfaceTable) Apps() []*workload.Profile { return t.apps }

// WayIndex maps a way count to its rank in config.CacheAllocs, or -1
// for a non-canonical allocation (the fractional ways of unpartitioned
// LRU sharing), which callers route to the pointwise model.
//
//hot:path called per application per bandwidth fixed-point iteration
func WayIndex(ways float64) int {
	switch ways {
	case float64(config.HalfWay):
		return 0
	case float64(config.OneWay):
		return 1
	case float64(config.TwoWays):
		return 2
	case float64(config.FourWays):
		return 3
	}
	return -1
}

// Build renders the dense (app, resource) surfaces for one memory-
// latency inflation value at the model's nominal frequency: IPC, BIPS,
// DRAM traffic (GB/s) and — for latency-critical apps — mean per-query
// service time in seconds. Grid consumers (characterisation sweeps,
// training-row construction, throughput audits) call Build once per
// inflation step and then read with the zero-alloc grid lookups.
func (t *SurfaceTable) Build(memInflation float64) {
	if memInflation < 1 {
		memInflation = 1
	}
	t.inflation = memInflation
	t.builds++
	freq := t.m.FreqGHz()
	for a := range t.apps {
		qi := t.queryInstr[a]
		for ci := 0; ci < config.NumCoreConfigs; ci++ {
			for wi := 0; wi < config.NumCacheAllocs; wi++ {
				idx := a*config.NumResources + ci*config.NumCacheAllocs + wi
				ipc := t.ipcAt(a, ci, wi, memInflation, freq)
				t.ipc[idx] = ipc
				t.bips[idx] = ipc * freq
				t.traffic[idx] = ipc * freq * t.missPerInstr[a*config.NumCacheAllocs+wi] * 64
				if qi > 0 {
					ips := ipc * freq * 1e9
					if ips <= 0 { // zero throughput: the service never completes a query
						t.svcSec[idx] = math.Inf(1)
					} else {
						t.svcSec[idx] = qi / ips
					}
				}
			}
		}
	}
}

// Inflation returns the memory-latency inflation the dense surfaces
// were last built for.
func (t *SurfaceTable) Inflation() float64 { return t.inflation }

// Stats returns the table's work counters: staging/Build passes run
// and lookups served.
func (t *SurfaceTable) Stats() (builds, lookups uint64) { return t.builds, t.lookups }

// ipcAt folds the staged terms with inflation and frequency — the
// tail of IPCAtFreq after its Pow-bearing prefix, verbatim.
//
//hot:path shared fold of every table lookup; pure arithmetic
func (t *SurfaceTable) ipcAt(a, coreIdx, wayIdx int, memInflation, freqGHz float64) float64 {
	cycleScale := freqGHz / config.BaseFreqGHz
	mr := t.missRatio[a*config.NumCacheAllocs+wayIdx]
	avgLat := (float64(config.L2Latency)*(1-mr) +
		float64(config.DRAMLatency)*mr*memInflation) * cycleScale
	//lint:allow floatsafe staging clamps effMLP to ≥1e-9 at construction (NewSurfaceTable)
	cpi := t.cpiCB[a*config.NumCoreConfigs+coreIdx] + t.memW[a]*avgLat/t.effMLP[a*config.NumCoreConfigs+coreIdx]
	if cpi <= 0 { // degenerate profile: report zero throughput, not Inf
		return 0
	}
	return 1 / cpi
}

// IPCAt is the point lookup for the bandwidth fixed point and DVFS
// paths: IPC of app a on core coreIdx with the wayIdx'th canonical
// allocation, under the given inflation, at an explicit clock.
// Bit-identical to Model.IPCAtFreq.
//
//hot:path called per application per bandwidth fixed-point iteration
func (t *SurfaceTable) IPCAt(a, coreIdx, wayIdx int, memInflation, freqGHz float64) float64 {
	if memInflation < 1 {
		memInflation = 1
	}
	t.lookups++
	return t.ipcAt(a, coreIdx, wayIdx, memInflation, freqGHz)
}

// TrafficAt is the point lookup for per-core DRAM bandwidth demand in
// GB/s at the model's nominal frequency. Bit-identical to
// Model.DRAMTrafficGBs.
//
//hot:path called per service per bandwidth fixed-point iteration
func (t *SurfaceTable) TrafficAt(a, coreIdx, wayIdx int, memInflation float64) float64 {
	if memInflation < 1 {
		memInflation = 1
	}
	t.lookups++
	freq := t.m.FreqGHz()
	ipc := t.ipcAt(a, coreIdx, wayIdx, memInflation, freq)
	return ipc * freq * t.missPerInstr[a*config.NumCacheAllocs+wayIdx] * 64
}

// MissPerInstr returns the staged LLC misses per instruction of app a
// at the wayIdx'th canonical allocation — bit-identical to
// MemFrac·L1MissRate·MissRatio(ways) evaluated pointwise.
//
//hot:path called per batch job per bandwidth fixed-point iteration
func (t *SurfaceTable) MissPerInstr(a, wayIdx int) float64 {
	t.lookups++
	return t.missPerInstr[a*config.NumCacheAllocs+wayIdx]
}

// IPC reads the dense IPC surface at the built inflation, nominal
// frequency. resIdx is a config.Resource index.
//
//hot:path grid read on the characterisation and training-row path
func (t *SurfaceTable) IPC(a, resIdx int) float64 {
	t.lookups++
	return t.ipc[a*config.NumResources+resIdx]
}

// BIPS reads the dense throughput surface (billions of instructions
// per second). Bit-identical to Model.BIPS at the built inflation.
//
//hot:path grid read on the characterisation and training-row path
func (t *SurfaceTable) BIPS(a, resIdx int) float64 {
	t.lookups++
	return t.bips[a*config.NumResources+resIdx]
}

// DRAMTrafficGBs reads the dense traffic surface. Bit-identical to
// Model.DRAMTrafficGBs at the built inflation.
//
//hot:path grid read on the characterisation and training-row path
func (t *SurfaceTable) DRAMTrafficGBs(a, resIdx int) float64 {
	t.lookups++
	return t.traffic[a*config.NumResources+resIdx]
}

// ServiceTimeSec reads the dense mean-service-time surface, seconds
// per query. Bit-identical to Model.ServiceTime at the built
// inflation for latency-critical apps; zero for batch apps.
//
//hot:path grid read on the characterisation and training-row path
func (t *SurfaceTable) ServiceTimeSec(a, resIdx int) float64 {
	t.lookups++
	return t.svcSec[a*config.NumResources+resIdx]
}
