package perf

import (
	"math"

	"cuttlesys/internal/config"
	"cuttlesys/internal/workload"
)

// SurfaceTable batches the performance model over a fixed application
// set (DESIGN.md §15). Construction stages every configuration-
// dependent subterm of the CPI formula that does not involve cache
// ways, memory-latency inflation or clock frequency — the compute+branch
// CPI and effective MLP per (app, core config), from the same coreTerms
// Model.IPC evaluates — plus the miss curve at the four canonical way
// allocations and the per-query instruction demand of latency-critical
// services. Those stages eliminate all math.Pow evaluation from the
// per-quantum path at canonical ways: a point lookup (IPCAt) folds the
// staged terms with the caller's miss ratio, inflation and frequency in
// a handful of multiplies, and Build renders the full (app, resource)
// grid of IPC/BIPS/service-time surfaces for one inflation value. The
// point lookups take a miss ratio from MissRatioAt, which at a
// non-canonical way count (the fractional occupancies of unpartitioned
// LRU sharing) evaluates the miss curve; a caller evaluates it once per
// occupancy and hands the ratio to every lookup at that occupancy.
//
// Every value a lookup produces is bit-identical to the closed form:
// the staged subterms are exactly its intermediates, cut at association
// boundaries, and foldIPC is the one fold both share, so the float64
// operation sequence is unchanged. The equivalence tests in
// table_test.go assert exact equality against a verbatim copy of the
// closed form over the full grid and a spread of fractional ways.
//
// A SurfaceTable is not safe for concurrent use: every read bumps the
// lookups counter, so callers that fan work out stage the values they
// need first (as sim.LCSurfaces does).
type SurfaceTable struct {
	m    *Model
	apps []*workload.Profile

	// Staged per-app terms (built once at construction).
	cpiCB      []float64 // (app, core): CPI_compute + CPI_branch
	effMLP     []float64 // (app, core): guarded effective MLP
	missRatio  []float64 // (app, wayIdx): LLC miss ratio
	memW       []float64 // app: MemFrac·L1MissRate
	queryInstr []float64 // app: per-query instructions (LC only, else 0)

	// Dense surfaces rendered by Build for one inflation value, at the
	// model's nominal frequency, indexed (app, resource).
	ipc    []float64
	bips   []float64
	svcSec []float64

	builds  uint64
	lookups uint64
}

// NewSurfaceTable stages the model over apps. Apart from the miss curve
// at a fractional way count (MissRatioAt), the staging pass is the only
// place the table evaluates math.Pow; it costs 9+4 Pow-bearing terms
// per app versus 4 per pointwise IPC call, so the table breaks even
// within four pointwise evaluations. Profiles must be validated
// upstream (as Machine and the characterisation sweeps do).
func NewSurfaceTable(m *Model, apps []*workload.Profile) *SurfaceTable {
	n := len(apps)
	t := &SurfaceTable{
		m:          m,
		apps:       apps,
		cpiCB:      make([]float64, n*config.NumCoreConfigs),
		effMLP:     make([]float64, n*config.NumCoreConfigs),
		missRatio:  make([]float64, n*config.NumCacheAllocs),
		memW:       make([]float64, n),
		queryInstr: make([]float64, n),
		ipc:        make([]float64, n*config.NumResources),
		bips:       make([]float64, n*config.NumResources),
		svcSec:     make([]float64, n*config.NumResources),
	}
	for a, app := range apps {
		t.memW[a] = app.MemFrac * app.L1MissRate
		var att [3][len(config.Widths)]float64 // FE, BE, LS attenuation per width
		for k, w := range config.Widths {
			att[0][k] = math.Pow(w.Scale(), app.FESens)
			att[1][k] = math.Pow(w.Scale(), app.BESens)
			att[2][k] = math.Pow(w.Scale(), app.LSSens)
		}
		for fi, fe := range config.Widths {
			for bi, be := range config.Widths {
				for li, ls := range config.Widths {
					c := config.Core{FE: fe, BE: be, LS: ls}
					i := a*config.NumCoreConfigs + c.Index()
					t.cpiCB[i], t.effMLP[i] = coreTerms(app, c, att[0][fi], att[1][bi], att[2][li])
				}
			}
		}
		for wi, alloc := range config.CacheAllocs {
			t.missRatio[a*config.NumCacheAllocs+wi] = app.MissRatio(alloc.Ways())
		}
		if app.IsLC() && app.MaxQPS > 0 {
			t.queryInstr[a] = m.QueryInstr(app)
		}
	}
	t.Build(1)
	return t
}

// wayIndex maps a way count to its rank in config.CacheAllocs, or -1
// for a non-canonical allocation (the fractional ways of unpartitioned
// LRU sharing), whose miss ratio MissRatioAt evaluates on the spot.
func wayIndex(ways float64) int {
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
// latency inflation value at the model's nominal frequency: IPC, BIPS
// and — for latency-critical apps — mean per-query service time in
// seconds. Grid consumers (characterisation sweeps, training-row
// construction, throughput audits) call Build once per inflation step
// and then read with the zero-alloc grid lookups.
func (t *SurfaceTable) Build(memInflation float64) {
	if memInflation < 1 {
		memInflation = 1
	}
	t.builds++
	freq := t.m.FreqGHz()
	for a := range t.apps {
		qi := t.queryInstr[a]
		for ci := 0; ci < config.NumCoreConfigs; ci++ {
			for wi := 0; wi < config.NumCacheAllocs; wi++ {
				idx := a*config.NumResources + ci*config.NumCacheAllocs + wi
				ipc := foldIPC(t.cpiCB[a*config.NumCoreConfigs+ci], t.effMLP[a*config.NumCoreConfigs+ci],
					t.memW[a], t.missRatio[a*config.NumCacheAllocs+wi], memInflation, freq)
				t.ipc[idx] = ipc
				t.bips[idx] = ipc * freq
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

// Stats returns the table's work counters: staging/Build passes run
// and lookups served.
func (t *SurfaceTable) Stats() (builds, lookups uint64) { return t.builds, t.lookups }

// MissRatioAt returns app a's LLC miss ratio at ways: the staged value
// for a canonical allocation, otherwise the miss curve evaluated on the
// spot — the table's only math.Pow after construction. The point
// lookups below take its result rather than a way count, so a caller
// whose occupancies hold for a while (sim's execution phase) evaluates
// each curve once and passes the ratio to every lookup that needs it.
// Like Build it is staging, not a lookup: the counter counts the reads
// that consume it.
//
//hot:path once per application per execution phase
func (t *SurfaceTable) MissRatioAt(a int, ways float64) float64 {
	if wi := wayIndex(ways); wi >= 0 {
		return t.missRatio[a*config.NumCacheAllocs+wi]
	}
	return t.apps[a].MissRatio(ways)
}

// ipcAt folds app a's staged core terms on c with a miss ratio.
func (t *SurfaceTable) ipcAt(a int, c config.Core, missRatio, memInflation, freqGHz float64) float64 {
	i := a*config.NumCoreConfigs + c.Index()
	return foldIPC(t.cpiCB[i], t.effMLP[i], t.memW[a], missRatio, memInflation, freqGHz)
}

// IPCAt is the point lookup for the bandwidth fixed point and DVFS
// paths: IPC of app a on core c at LLC miss ratio missRatio (from
// MissRatioAt, at canonical or fractional ways), under the given
// inflation, at an explicit clock. Bit-identical to the closed form.
//
//hot:path called per application per bandwidth fixed-point iteration
func (t *SurfaceTable) IPCAt(a int, c config.Core, missRatio, memInflation, freqGHz float64) float64 {
	t.lookups++
	return t.ipcAt(a, c, missRatio, memInflation, freqGHz)
}

// TrafficAt is the point lookup for per-core DRAM bandwidth demand in
// GB/s at the model's nominal frequency: one 64-byte line per LLC miss.
//
//hot:path called per service per bandwidth fixed-point iteration
func (t *SurfaceTable) TrafficAt(a int, c config.Core, missRatio, memInflation float64) float64 {
	t.lookups++
	freq := t.m.FreqGHz()
	return t.ipcAt(a, c, missRatio, memInflation, freq) * freq * (t.memW[a] * missRatio) * 64
}

// MissPerInstr returns the LLC misses per instruction of app a at miss
// ratio missRatio — MemFrac·L1MissRate·missRatio, the association the
// closed form uses.
//
//hot:path called per batch job per bandwidth fixed-point iteration
func (t *SurfaceTable) MissPerInstr(a int, missRatio float64) float64 {
	t.lookups++
	return t.memW[a] * missRatio
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
// per second): IPC times the nominal clock.
//
//hot:path grid read on the characterisation and training-row path
func (t *SurfaceTable) BIPS(a, resIdx int) float64 {
	t.lookups++
	return t.bips[a*config.NumResources+resIdx]
}

// ServiceTimeSec reads the dense mean-service-time surface, seconds
// per query: QueryInstr over instructions per second at the built
// inflation for latency-critical apps (+Inf at zero throughput); zero
// for batch apps.
//
//hot:path grid read on the characterisation and training-row path
func (t *SurfaceTable) ServiceTimeSec(a, resIdx int) float64 {
	t.lookups++
	return t.svcSec[a*config.NumResources+resIdx]
}
