// Package core implements the CuttleSys runtime — the paper's primary
// contribution (§IV-§VI): an online resource manager for reconfigurable
// multicores that each 100 ms decision quantum
//
//  1. profiles every application for 1 ms on the widest- and 1 ms on
//     the narrowest-issue configuration with one LLC way (§VIII-A1),
//  2. reconstructs the full throughput, power, tail-latency and
//     service-rate surfaces across all 108 resource configurations with
//     four instances of PQ-reconstruction SGD seeded by
//     offline-characterised "known" applications (§V) — the paper runs
//     its three instances on parallel threads; here the four train in
//     the SIMD lanes of one deterministic sweep (sgd.ReconstructQuad),
//  3. fixes the latency-critical service's configuration by scanning
//     the reconstructed latency row for the cheapest QoS-meeting point
//     (§VI-A), then explores the batch jobs' configuration space with
//     parallel Dynamically Dimensioned Search under soft power and
//     cache penalties (§VI),
//  4. runs the chosen allocation in steady state and writes the
//     measured metrics back into the matrices so mispredictions are
//     corrected in the next quantum (§IV-B).
//
// When no configuration satisfies QoS the runtime reclaims one core per
// timeslice from the batch jobs; cores are yielded back once QoS is met
// with slack (§VI-A). When even the all-narrowest allocation exceeds
// the power budget, whole cores are gated in descending order of power
// (§VI-B).
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"cuttlesys/internal/config"
	"cuttlesys/internal/dds"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/perf"
	"cuttlesys/internal/power"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/sgd"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/stats"
	"cuttlesys/internal/workload"
)

// SearchAlgo selects the design-space explorer.
type SearchAlgo int

// Search algorithms: DDS is the paper's (default); GA reproduces
// Flicker's searcher for the Fig. 10 comparison.
const (
	SearchDDS SearchAlgo = iota
	SearchGA
)

// The runtime's design points. The paper fixes these rather than
// tuning them, and no caller varies them.
const (
	// nTrainBatch is the number of offline-characterised SPEC
	// applications seeding the throughput/power matrices (§VIII-A2).
	// They are drawn with workload.SplitTrainTest(TrainSeed,
	// nTrainBatch); runs must build their mixes from the complement.
	nTrainBatch = 16
	// nTrainLC is the number of offline-characterised latency-critical
	// variants seeding the tail-latency matrix.
	nTrainLC = 12
	// overheadSec is the scheduling compute charged per decision
	// (reconstruction + search): 6.1 ms, the Table II total.
	overheadSec = 0.0061
	// profileNoise and steadyNoise are the relative sigmas of 1 ms
	// profiling samples and full-slice measurements.
	profileNoise, steadyNoise = 0.05, 0.02
	// qosSafety derates the QoS target during the latency scan so
	// prediction error does not park the service on the QoS boundary.
	qosSafety = 0.8
	// slackYield is the latency slack at which a relocated core is
	// returned to the batch jobs (§VIII-D3).
	slackYield = 0.2
	// penaltyPower and penaltyCache weight the soft constraint
	// penalties in the DDS objective (Fig. 6).
	penaltyPower, penaltyCache = 2, 2
	// maxUtil is the highest predicted utilisation (offered load over
	// service capacity) the QoS scan accepts for a candidate LC
	// configuration — the saturation-knee guard.
	maxUtil = 0.85
	// probeMargin inflates the predicted utilisation of configurations
	// the running service has never been measured on: their predicted
	// service time comes purely from the training variants, and an
	// optimistic error there must still leave the service below the
	// knee.
	probeMargin = 1.2
	// divergenceTol is the mean relative error between the predictions
	// behind the applied allocation and the measured steady-state
	// metrics above which a slice counts as divergent.
	divergenceTol = 0.6
	// divergenceSlices is the number of consecutive divergent slices
	// that trips degraded mode: the runtime abandons the reconstructed
	// surfaces and applies the safe-fallback allocation until a slice
	// agrees with its predictions again.
	divergenceSlices = 3
)

// Params tunes the runtime. Zero values select the paper's settings.
type Params struct {
	// Seed drives profiling noise and the per-slice search seeds.
	Seed uint64
	// TrainSeed selects the training split. Default 1.
	TrainSeed uint64
	// SGD overrides the reconstruction hyper-parameters; its zero
	// value is sgd's one recipe (rank 6, λ 0.03, 300 sweeps).
	SGD sgd.Params
	// DDS overrides the search parameters (defaults follow Fig. 6,
	// with 8 workers). The serial-DDS ablation sets Workers to 1.
	DDS dds.Params
	// TrackAccuracy records, for every applied configuration, the
	// relative error between the reconstruction's prediction and the
	// measured steady-state value — the Fig. 5b runtime-accuracy study.
	TrackAccuracy bool
	// Searcher selects the design-space exploration algorithm:
	// parallel DDS (the paper's choice) or the genetic algorithm used
	// for the Fig. 10 comparison.
	Searcher SearchAlgo
	// ShareFactors captures the trained factor state of every
	// reconstruction for export to the fleet model-sharing plane
	// (internal/modelplane). Capture never changes predictions — the
	// reconstruction math is identical — but the default is off so
	// runtimes outside a share-enabled fleet skip the copy entirely.
	ShareFactors bool

	// DisableResilience turns off telemetry validation, the divergence
	// detector, failed-core quarantine and the safe fallback — the
	// trusting runtime used as the chaos-sweep control.
	DisableResilience bool

	// Ablation switches: each disables one of the runtime's guards so
	// its contribution can be measured (`cuttlesys paper ablation`). All
	// default off.
	//
	// DisableUtilVeto removes the utilisation check from the QoS scan,
	// trusting the reconstructed latency row alone.
	DisableUtilVeto bool
	// DisableLatencyEWMA overwrites latency matrix entries with raw
	// per-slice measurements instead of the exponentially weighted
	// blend.
	DisableLatencyEWMA bool
	// DisableDrainGuard records tail-latency measurements even for
	// slices that began with violated QoS (backlog transients).
	DisableDrainGuard bool
	// DisableWarmStart withholds the previous allocation from the
	// search's initial point set.
	DisableWarmStart bool
}

func (p Params) withDefaults() Params {
	if p.TrainSeed == 0 {
		p.TrainSeed = 1
	}
	if p.DDS.Workers == 0 {
		p.DDS.Workers = 8
	}
	return p
}

// control is the part of a service's scheduling state the decision
// reads (choose takes it by value).
type control struct {
	cores       int
	initCores   int
	lastRes     config.Resource
	lastP99Ms   float64
	haveP99     bool
	cleanSlices int // slices whose latency measurement was usable
	qosMs       float64
}

// svcState tracks one latency-critical service's scheduling state.
type svcState struct {
	app *workload.Profile
	control
	prevViolated bool // previous slice missed QoS (drain in progress)
	predPwr      float64
	predLat      float64
}

// Runtime is the CuttleSys scheduler. It observes the machine only
// through profiling and steady-state measurements; the performance and
// power models are used solely to characterise the offline training
// applications, which by construction exclude the running jobs. It
// manages any number of latency-critical services (§VII-A), each with
// its own row in the latency and service-time matrices, QoS scan and
// core-relocation state.
type Runtime struct {
	p      Params
	batch  []*workload.Profile
	nCores int

	// Reconstruction matrices (§V). Throughput rows: nTrainBatch known
	// apps then the running batch jobs. Power rows: the same plus one
	// final row for the LC service. Latency and service-time rows:
	// nTrainLC known LC variants then the running LC service. The
	// service-time matrix backs the QoS scan's utilisation veto: mean
	// service time is IPC-shaped (no queueing knee), so its
	// reconstruction is accurate enough to predict which
	// configurations would saturate at the offered load.
	thrM, pwrM, latM, svcM *sgd.Matrix

	// svcs holds per-service scheduling state, primary service first.
	// Empty on batch-only machines.
	svcs []*svcState

	lastAlloc *sim.Allocation
	slice     int
	r         *rng.RNG

	// Pending per-slice predictions and the accumulated error log
	// (TrackAccuracy).
	predThr, predPwr []float64
	accErrs          map[string][]float64

	widestIdx, narrowestIdx int
	// LC profiling samples are taken at the service's four-way cache
	// allocation (it holds its ways during the 1 ms windows), so its
	// power observations land in the four-way columns.
	lcWidestIdx, lcNarrowIdx int

	// Resilience state: the divergence streak and the degraded-mode
	// latch it feeds, plus the failed-core counts reported by the last
	// steady-state measurement (quarantine input).
	divergeStreak int
	degraded      bool
	failedLC      int
	failedBatch   int

	// obs receives decision-phase telemetry; Nop unless the driver
	// attached a collector via SetCollector.
	obs obs.Collector

	// Model-sharing state (share.go): the factor sets captured by the
	// latest reconstruction (ShareFactors), the imported fleet
	// aggregate standing in for the cold init after a WarmStart, its
	// fine-tune sweep budget, and the sampling-phase quantum count.
	factors        map[string]*sgd.Factors
	warm           map[string]*sgd.Factors
	warmIters      int
	warmStarted    bool
	samplingQuanta int

	// scratch holds the batch objective's score tables across quanta.
	scratch dds.SeparableObjective
}

var (
	_ harness.Scheduler        = (*Runtime)(nil)
	_ harness.ProfileValidator = (*Runtime)(nil)
	_ harness.DegradedReporter = (*Runtime)(nil)
)

// New builds a runtime for the machine's job set. The offline training
// characterisation (known-application rows) is computed here, so
// construction performs the one-time work a datacenter would amortise
// across deployments. Reconstruction parameters no decision could use
// (sgd.Params.Validate) panic here, not at the first decision.
func New(m *sim.Machine, params Params) *Runtime {
	p := params.withDefaults()
	if err := p.SGD.Validate(); err != nil {
		panic(err)
	}
	batch := m.Batch()
	nBatch := len(batch)

	rt := &Runtime{
		p:            p,
		batch:        batch,
		obs:          obs.Nop,
		nCores:       m.NCores(),
		r:            rng.New(p.Seed ^ 0x9e3779b97f4a7c15),
		widestIdx:    config.Resource{Core: config.Widest, Cache: config.OneWay}.Index(),
		narrowestIdx: config.Resource{Core: config.Narrowest, Cache: config.OneWay}.Index(),
		lcWidestIdx:  config.Resource{Core: config.Widest, Cache: config.FourWays}.Index(),
		lcNarrowIdx:  config.Resource{Core: config.Narrowest, Cache: config.FourWays}.Index(),
	}
	services := m.Services()
	for _, app := range services {
		init := m.NCores() / 2 / len(services)
		rt.svcs = append(rt.svcs, &svcState{app: app, control: control{
			cores: init, initCores: init, lastRes: strongest, qosMs: app.QoSTargetMs,
		}})
	}

	// Offline characterisation of the known applications (§V): the
	// training rows are fully observed. The models are the stand-in
	// for the paper's offline zsim characterisation runs.
	pm, wm := perf.New(true), power.New(true)
	train, _ := workload.SplitTrainTest(p.TrainSeed, nTrainBatch)
	rt.thrM = sgd.NewMatrix(nTrainBatch+nBatch, config.NumResources)
	pwrRows := nTrainBatch + nBatch + len(rt.svcs)
	rt.pwrM = sgd.NewMatrix(pwrRows, config.NumResources)
	for i, app := range train {
		bips, pwr := sim.BatchSurfaces(pm, wm, app)
		rt.thrM.ObserveRow(i, bips)
		rt.pwrM.ObserveRow(i, pwr)
	}
	if len(rt.svcs) > 0 {
		rt.latM = sgd.NewMatrix(nTrainLC+len(rt.svcs), config.NumResources)
		rt.svcM = sgd.NewMatrix(nTrainLC+len(rt.svcs), config.NumResources)
		for i, row := range lcTrainingRows(p.TrainSeed, nTrainLC, rt.svcs[0].initCores) {
			rt.latM.ObserveRow(i, row.lat)
			rt.svcM.ObserveRow(i, row.svc)
		}
	}
	return rt
}

type lcTrainKey struct {
	trainSeed uint64
	nTrainLC  int
	cores     int
}

type lcTrainRow struct {
	lat, svc []float64
}

// lcTrainCache maps an lcTrainKey to the sync.OnceValue that computes
// its rows, so concurrent misses on one key characterise once and the
// rest wait for that result.
var lcTrainCache sync.Map

// lcTrainComputes counts the characterisations actually run.
var lcTrainComputes atomic.Int64

// lcTrainingRows characterises the offline latency-critical variants —
// tail latency and mean service time across all 108 configurations.
// Variants are characterised under a moderately loaded memory system
// (inflation 1.35): the running service will share DRAM bandwidth with
// 16 batch jobs, and training rows measured on an idle machine would
// underpredict the latency of memory-sensitive configurations. The
// characterisation is deterministic per (seed, count, cores), so sweeps
// that build many runtimes share one cached copy.
func lcTrainingRows(trainSeed uint64, nTrainLC, cores int) []lcTrainRow {
	key := lcTrainKey{trainSeed, nTrainLC, cores}
	rows, ok := lcTrainCache.Load(key)
	if !ok {
		rows, _ = lcTrainCache.LoadOrStore(key, sync.OnceValue(func() []lcTrainRow {
			lcTrainComputes.Add(1)
			pm, wm := perf.New(true), power.New(true)
			variants := workload.SyntheticLC(trainSeed+100, nTrainLC)
			seeds := make([]uint64, nTrainLC)
			for i := range seeds {
				seeds[i] = trainSeed + uint64(i)
			}
			lats, _, svcs := sim.LCSurfaces(pm, wm, variants, cores, 0.8, seeds, 0.3, 1.35)
			rows := make([]lcTrainRow, nTrainLC)
			for i := range rows {
				rows[i] = lcTrainRow{lat: lats[i], svc: svcs[i]}
			}
			return rows
		}))
	}
	return rows.(func() []lcTrainRow)()
}

// Name implements harness.Scheduler.
func (rt *Runtime) Name() string { return "cuttlesys" }

// DecisionOverheadSec reports the modeled compute constant every
// DecideMulti path charges.
//
// Deprecated: nothing in the driver reads it any more; it is declared
// only because bench/ (frozen by BENCHMARK.json) calls it, and goes
// with those calls.
func (rt *Runtime) DecisionOverheadSec() float64 { return overheadSec }

// batchRow maps batch job i to its matrix row.
func batchRow(i int) int { return nTrainBatch + i }

// lcPowerRow is service k's row in the power matrix of a machine with
// nBatch batch jobs.
func lcPowerRow(nBatch, k int) int { return nTrainBatch + nBatch + k }

// latRow is service k's row in the latency and service-time matrices.
func latRow(k int) int { return nTrainLC + k }

// ProfilePhasesMulti implements §VIII-A1: two 1 ms windows; half the
// batch cores run the widest and half the narrowest configuration
// (swapped in the second window) to avoid a power overshoot, each with
// one LLC way; every service's cores visit both extremes in turn with
// half its cores held at the opposite extreme so queries keep
// load-balancing onto fast cores.
func (rt *Runtime) ProfilePhasesMulti(qps []float64, budgetW float64) []harness.Phase {
	mk := func(lcCfg config.Core, flip bool) harness.Phase {
		a := sim.Allocation{Batch: make([]sim.BatchAssign, len(rt.batch))}
		for k, sv := range rt.svcs {
			a.SetService(k, sim.LCAssign{Cores: sv.cores, Core: lcCfg, Cache: config.FourWays, HalfBlend: true})
		}
		for i := range a.Batch {
			cfg := config.Widest
			if (i%2 == 0) == flip {
				cfg = config.Narrowest
			}
			a.Batch[i] = sim.BatchAssign{Core: cfg, Cache: config.OneWay}
		}
		return harness.Phase{Dur: 0.001, Alloc: a}
	}
	return []harness.Phase{mk(config.Widest, false), mk(config.Narrowest, true)}
}

// AccuracyErrors returns the accumulated prediction-error samples in
// percent, keyed by metric ("throughput", "power", "latency"). Only
// populated with Params.TrackAccuracy.
func (rt *Runtime) AccuracyErrors() map[string][]float64 { return rt.accErrs }

// EndSliceMulti writes the measured steady-state metrics back into the
// matrices at the applied configurations (§IV-B step 5) and records
// each service's tail latency for the next decision.
func (rt *Runtime) EndSliceMulti(steady sim.PhaseResult, qps []float64) {
	if rt.lastAlloc == nil {
		return
	}
	fw := obs.BeginWall(rt.obs)
	defer fw.End(rt.obs, "core.feedback")
	alloc := rt.lastAlloc
	mux := alloc.MultiplexFactor(rt.nCores)
	if rt.p.TrackAccuracy && rt.accErrs == nil {
		rt.accErrs = map[string][]float64{}
	}
	// A slice that ran with failed cores measured the failure, not the
	// configuration: quarantine its telemetry from the matrices (the
	// failed-core counts themselves feed the next decision's
	// compensation instead).
	faulted := !rt.p.DisableResilience && (steady.FailedLC > 0 || steady.FailedBatch > 0)
	if !rt.p.DisableResilience {
		rt.failedLC, rt.failedBatch = steady.FailedLC, steady.FailedBatch
	}
	for i, b := range alloc.Batch {
		if b.Gated || mux == 0 || i >= len(steady.BatchBIPS) || i >= len(steady.BatchPowerW) {
			continue
		}
		col := config.Resource{Core: b.Core, Cache: b.Cache}.Index()
		if rt.p.TrackAccuracy && rt.predThr != nil {
			rt.accErrs["throughput"] = append(rt.accErrs["throughput"],
				stats.RelErrPct(rt.predThr[i], steady.BatchBIPS[i]/mux))
			rt.accErrs["power"] = append(rt.accErrs["power"],
				stats.RelErrPct(rt.predPwr[i], steady.BatchPowerW[i]))
		}
		if !faulted && rt.validSample(steady.BatchBIPS[i]) {
			rt.thrM.Observe(batchRow(i), col, sim.Measure(rt.r, steady.BatchBIPS[i]/mux, steadyNoise))
		}
		if !faulted && rt.validSample(steady.BatchPowerW[i]) {
			rt.pwrM.Observe(batchRow(i), col, sim.Measure(rt.r, steady.BatchPowerW[i], steadyNoise))
		}
	}
	for k, sv := range rt.svcs {
		a := alloc.Service(k)
		if a.Cores <= 0 {
			continue
		}
		// A phase that ran no steady state (profiling consumed the
		// slice) reports no services: read zeros, as the sensors would.
		var r sim.LCResult
		if k < len(steady.LC) {
			r = steady.LC[k]
		}
		sojourns, corePower, meanSvcMs := r.Sojourns, r.CorePowerW, r.MeanSvc*1e3
		res := config.Resource{Core: a.Core, Cache: a.Cache}
		col := res.Index()
		if !faulted && rt.validSample(corePower) {
			rt.pwrM.Observe(lcPowerRow(len(rt.batch), k), col, sim.Measure(rt.r, corePower, steadyNoise))
		}
		if rt.p.TrackAccuracy && rt.predThr != nil {
			rt.accErrs["power"] = append(rt.accErrs["power"],
				stats.RelErrPct(sv.predPwr, corePower))
		}
		if len(sojourns) == 0 {
			continue
		}
		p99 := stats.P99(sojourns) * 1e3
		if !rt.validSample(p99) {
			// Garbage sojourn telemetry: without a trustworthy tail
			// measurement the slice teaches nothing about latency.
			continue
		}
		wasDraining := sv.prevViolated
		sv.lastP99Ms = p99
		sv.haveP99 = true
		sv.prevViolated = p99 > sv.qosMs
		sv.lastRes = res
		// Tail latency is only meaningful over a full slice (§IV-B), so
		// the latency matrix is updated here rather than from the 1 ms
		// profiling windows. A slice that began with a violated QoS is
		// still draining backlog: its p99 reflects the transient, not
		// the configuration, and recording it would poison the column
		// forever.
		if rt.p.TrackAccuracy && rt.predThr != nil && !wasDraining && sv.predLat > 0 {
			rt.accErrs["latency"] = append(rt.accErrs["latency"],
				stats.RelErrPct(sv.predLat, p99))
		}
		if (!wasDraining || rt.p.DisableDrainGuard) && !faulted {
			// Exponentially weighted update: p99 near a saturation knee
			// is noisy slice to slice, and a single lucky sample must
			// not certify a marginal configuration.
			v := p99
			if !rt.p.DisableLatencyEWMA && rt.latM.Known(latRow(k), col) {
				v = 0.5*rt.latM.At(latRow(k), col) + 0.5*p99
			}
			rt.latM.Observe(latRow(k), col, v)
			sv.cleanSlices++
		}
		// Mean service time is measurable regardless of backlog.
		if !faulted && rt.validSample(meanSvcMs) {
			rt.svcM.Observe(latRow(k), col,
				sim.Measure(rt.r, meanSvcMs, steadyNoise))
		}
	}
	rt.updateDivergence(alloc, steady, mux)
}

// validSample reports whether a telemetry reading can be trusted:
// finite and non-negative. Corrupted profiling samples and garbage
// steady-state telemetry (NaN, negative counters) must not reach the
// matrices — a single poisoned cell propagates through the log-space
// reconstruction to every prediction in its row and column.
func (rt *Runtime) validSample(v float64) bool {
	if rt.p.DisableResilience {
		return true
	}
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// ValidateProfile implements harness.ProfileValidator: profiling
// windows whose counters are non-finite or negative are rejected so
// the harness re-samples (up to harness.MaxProfileRetries) instead of
// handing corrupted readings to the reconstruction.
func (rt *Runtime) ValidateProfile(profile []sim.PhaseResult) error {
	if rt.p.DisableResilience {
		return nil
	}
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) || v < 0 }
	for pi, pr := range profile {
		for i, v := range pr.BatchBIPS {
			if bad(v) {
				return fmt.Errorf("profile window %d: batch job %d throughput %v", pi, i, v)
			}
			// The runtime's profile windows never gate a job, so a zero
			// throughput reading is a dropped sample, not a measurement.
			if v == 0 {
				return fmt.Errorf("profile window %d: batch job %d sample dropped", pi, i)
			}
		}
		for i, v := range pr.BatchPowerW {
			if bad(v) {
				return fmt.Errorf("profile window %d: batch job %d power %v", pi, i, v)
			}
		}
		for k, r := range pr.LC {
			if bad(r.CorePowerW) {
				return fmt.Errorf("profile window %d: service %d core power %v", pi, k, r.CorePowerW)
			}
		}
	}
	return nil
}

// Degraded implements harness.DegradedReporter: true while the
// divergence detector has the runtime on safe-fallback allocations.
func (rt *Runtime) Degraded() bool { return rt.degraded }

// updateDivergence runs the divergence detector: a slice whose mean
// relative error between the predictions behind the applied
// allocation and the measured steady-state metrics exceeds
// divergenceTol counts toward a streak, and divergenceSlices
// consecutive divergent slices trip degraded mode. A single slice
// that agrees with its predictions again clears it.
func (rt *Runtime) updateDivergence(alloc *sim.Allocation, steady sim.PhaseResult, mux float64) {
	if rt.p.DisableResilience || rt.predThr == nil {
		return
	}
	var sum float64
	var n int
	add := func(pred, meas float64) {
		if pred > 0 && rt.validSample(meas) {
			sum += math.Abs(pred-meas) / pred
			n++
		}
	}
	for i, b := range alloc.Batch {
		if b.Gated || mux == 0 || i >= len(steady.BatchBIPS) || i >= len(rt.predThr) {
			continue
		}
		add(rt.predThr[i], steady.BatchBIPS[i]/mux)
	}
	for _, sv := range rt.svcs {
		if sv.haveP99 {
			add(sv.predLat, sv.lastP99Ms)
		}
	}
	if n == 0 {
		return
	}
	if sum/float64(n) > divergenceTol {
		rt.divergeStreak++
	} else {
		rt.divergeStreak = 0
	}
	was := rt.degraded
	rt.degraded = rt.divergeStreak >= divergenceSlices
	if rt.degraded != was && rt.obs.Enabled() {
		state := "exit"
		if rt.degraded {
			state = "enter"
		}
		rt.obs.Emit(obs.Mark(obs.EventDegraded).With("state", state))
	}
}

// reconstructAll reconstructs the decision's surfaces (§V) through
// sgd.ReconstructQuad: throughput, power, latency and service-rate
// train one to a SIMD lane in a single sweep for as long as their
// entry lists name the same cells, then pair by pair, then alone —
// bit-identical to four independent runs at every step. A batch-only
// machine has no latency or service-rate matrix and trains two lanes.
// With ShareFactors each instance also yields its trained factor
// state (nil for a cold model), folded into rt.factors here.
func (rt *Runtime) reconstructAll() (thr, pwr, lat, svc *sgd.Prediction) {
	surfaces := [4]string{"thr", "pwr", "lat", "svc"}
	ms := [4]*sgd.Matrix{rt.thrM, rt.pwrM, rt.latM, rt.svcM}
	var ps [4]sgd.Params
	for l, surface := range surfaces {
		ps[l] = rt.shareParams(rt.p.SGD, surface)
	}
	preds, facs := sgd.ReconstructQuad(ms, ps, rt.p.ShareFactors)
	if rt.p.ShareFactors {
		out := make(map[string]*sgd.Factors, len(surfaces))
		for l, surface := range surfaces {
			if facs[l] != nil {
				out[surface] = facs[l]
			}
		}
		if len(out) > 0 {
			rt.factors = out
		}
	}
	return preds[0], preds[1], preds[2], preds[3]
}

// String describes the runtime's state for debugging.
func (rt *Runtime) String() string {
	total := 0
	for _, sv := range rt.svcs {
		total += sv.cores
	}
	return fmt.Sprintf("cuttlesys{slice=%d services=%d lcCores=%d}", rt.slice, len(rt.svcs), total)
}
