package sim

import (
	"math"

	"cuttlesys/internal/config"
	"cuttlesys/internal/par"
	"cuttlesys/internal/perf"
	"cuttlesys/internal/power"
	"cuttlesys/internal/qsim"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/stats"
	"cuttlesys/internal/workload"
)

// BatchSurfaces returns the ground-truth throughput (BIPS) and per-core
// power (W) of a batch application across all 108 resource
// configurations, running in isolation with uncontended memory. These
// surfaces seed the "known applications" rows of the reconstruction
// matrices (§V) and serve as the reference for the Fig. 5a accuracy
// study.
func BatchSurfaces(pm *perf.Model, wm *power.Model, app *workload.Profile) (bips, pwr []float64) {
	bips = make([]float64, config.NumResources)
	pwr = make([]float64, config.NumResources)
	// One staged table render replaces 108 pointwise model evaluations;
	// the grid reads are bit-identical to the calls they replace.
	tbl := perf.NewSurfaceTable(pm, []*workload.Profile{app})
	for i, r := range config.AllResources() {
		ipc := tbl.IPC(0, i)
		bips[i] = tbl.BIPS(0, i)
		pwr[i] = wm.Core(app, r.Core, ipc)
	}
	return bips, pwr
}

// lcSurfaceWorkers is the fan-out width of LCSurfaces. It is a fixed
// constant rather than a function of the host's core count: the result
// does not depend on it, so nothing host-dependent needs to reach the
// characterisation path, and a host with fewer cores time-slices the
// same loop.
const lcSurfaceWorkers = 8

// LCSurfaces returns the ground-truth p99 tail latency (milliseconds),
// per-core power (W) and mean per-query service time (milliseconds) of
// latency-critical services across all 108 resource configurations,
// one row per service in apps, each served by k load-balanced cores at
// loadFrac of its max QPS. Tail latency comes from the discrete-event
// queueing simulator run for simSec seconds per configuration;
// saturated configurations report their (finite, large) simulated
// backlog-driven p99. memInflation sets the
// memory-latency inflation the characterisation runs under: 1 for an
// idle machine, ~1.35 for a server colocated with batch jobs — the
// paper's known applications are characterised on the same
// multi-tenant setup they later inform. Unlike the p99 surface, mean
// service time has no queueing knee — it is IPC-shaped and therefore
// easy for the collaborative filter to predict — so the runtime uses
// its reconstruction to estimate per-configuration utilisation and
// veto saturating configurations.
//
// The len(apps)·108 queue simulations are independent — configuration
// i of service v draws from its own stream (seeds[v]+i) and fills only
// latMs[v][i] and pwr[v][i] — so they run concurrently through one
// par.For and the surfaces are bit-identical at any GOMAXPROCS, and to
// one call per service. The table is read before the fan-out:
// SurfaceTable is not safe for concurrent use.
func LCSurfaces(pm *perf.Model, wm *power.Model, apps []*workload.Profile, k int, loadFrac float64, seeds []uint64, simSec, memInflation float64) (latMs, pwr, svcMs [][]float64) {
	// Checked here so a panic unwinds the caller, not a worker.
	if len(seeds) != len(apps) {
		panic("sim: LCSurfaces needs one seed per service")
	}
	for _, app := range apps {
		if !app.IsLC() {
			panic("sim: LCSurfaces on a batch application")
		}
		pm.QueryInstr(app) // panics on MaxQPS ≤ 0, preserving the pre-table contract
	}
	if k <= 0 {
		panic("sim: LCSurfaces with non-positive core count")
	}
	tbl := perf.NewSurfaceTable(pm, apps)
	tbl.Build(memInflation)
	n := len(apps) * config.NumResources
	ipc, meanSvc := make([]float64, n), make([]float64, n)
	latMs, pwr, svcMs = make([][]float64, len(apps)), make([][]float64, len(apps)), make([][]float64, len(apps))
	for v := range apps {
		svcMs[v] = make([]float64, config.NumResources)
		for i := 0; i < config.NumResources; i++ {
			vi := v*config.NumResources + i
			ipc[vi] = tbl.IPC(v, i)
			meanSvc[vi] = tbl.ServiceTimeSec(v, i)
			svcMs[v][i] = meanSvc[vi] * 1e3
		}
		latMs[v], pwr[v] = make([]float64, config.NumResources), make([]float64, config.NumResources)
	}
	steps := int(math.Ceil(simSec / 0.1))

	bufs := make([][]float64, lcSurfaceWorkers) // sojourns, reused across a worker's runs
	par.For(n, lcSurfaceWorkers, func(w, vi int) {
		v, i := vi/config.NumResources, vi%config.NumResources
		app := apps[v]
		qps := loadFrac * app.MaxQPS
		svc := qsim.NewService(seeds[v]+uint64(i), k)
		sojourns := bufs[w][:0]
		for s := 0; s < steps; s++ {
			sojourns = svc.AppendStep(sojourns, 0.1, qps, meanSvc[vi], app.QuerySigma)
		}
		bufs[w] = sojourns
		latMs[v][i] = stats.PercentileInPlace(sojourns, 0.99) * 1e3
		util := math.Min(1, qps*meanSvc[vi]/float64(k))
		pwr[v][i] = wm.Core(app, config.ResourceByIndex(i).Core, ipc[vi]*util)
	})
	return latMs, pwr, svcMs
}

// Measure applies multiplicative measurement noise to a true value:
// v·(1+ε) with ε ~ N(0, relSigma) truncated at ±3σ. Profiling samples
// collected over 1 ms windows are noisy (§VIII-B); the runtime's
// reconstruction must tolerate it.
func Measure(r *rng.RNG, v, relSigma float64) float64 {
	eps := stats.Clamp(r.Norm(), -3, 3) * relSigma
	return v * (1 + eps)
}
