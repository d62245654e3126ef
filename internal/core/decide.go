package core

import (
	"math"

	"cuttlesys/internal/config"
	"cuttlesys/internal/dds"
	"cuttlesys/internal/ga"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/power"
	"cuttlesys/internal/sgd"
	"cuttlesys/internal/sim"
)

// DecideMulti implements the Resource Controller (§IV-B, Fig. 2): it
// folds the profiling samples into the matrices, reconstructs the
// surfaces, fixes each latency-critical service's configuration via
// its QoS scan, explores the batch configuration space with parallel
// DDS, and enforces the power budget by gating cores when necessary.
// qps carries one offered load per service, primary first.
func (rt *Runtime) DecideMulti(profile []sim.PhaseResult, qps []float64, budgetW float64) (sim.Allocation, float64) {
	rt.slice++
	rt.noteSampling()
	if math.IsNaN(budgetW) || budgetW < 0 {
		// A garbage budget reading fails safe: a zero budget gates the
		// batch side down to its floor instead of propagating NaN
		// through the gating arithmetic.
		budgetW = 0
	}
	c := rt.obs
	traced := c.Enabled()
	ow := obs.BeginWall(c)
	rt.observeProfiles(profile)
	ow.End(c, "core.observe")
	rw := obs.BeginWall(c)
	thr, pwr, lat, svc := rt.reconstructAll()
	rw.End(c, "core.reconstruct")
	if traced {
		rt.emitReconstruction(thr, pwr, lat, svc)
	}

	if !rt.p.DisableResilience && (rt.degraded || !rt.predictionsValid(thr, pwr, lat, svc)) {
		if traced {
			c.Emit(obs.Mark(obs.EventFallback))
			c.Add(obs.MetricFallbacks, obs.NoLabels, 1)
		}
		return rt.decideFallback(thr, pwr, lat), overheadSec
	}

	// --- latency-critical services: QoS scan per service (§VI-A) ---
	scanWall := obs.BeginWall(c)
	lcRes := make([]config.Resource, len(rt.svcs))
	for k, sv := range rt.svcs {
		res, _ := rt.scanQoS(sv, k, lat, pwr, svc, loadAt(qps, k))
		lcRes[k] = res
		sv.predPwr = pwr.At(rt.lcPowerRow(k), res.Index())
		sv.predLat = lat.At(rt.latRow(k), res.Index())
		rt.relocate(sv, k, svc, loadAt(qps, k))
		if traced {
			c.Emit(obs.Mark(obs.EventScan).With("service", obs.Itoa(k)).
				With("cfg", res.Core.String()).With("ways", obs.Float(res.Cache.Ways())))
			svcLabel := obs.Label("service", obs.Itoa(k))
			c.Set(obs.MetricLCCores, svcLabel, float64(sv.cores))
			c.Set(obs.MetricLCWays, svcLabel, res.Cache.Ways())
		}
	}
	scanWall.End(c, "core.scan")

	// --- batch jobs: design-space exploration over the 108-way
	// per-job domain (§VI); parallel DDS by default, GA for Fig. 10 ---
	nBatch := len(rt.batch)
	var best []int
	if nBatch > 0 {
		searchWall := obs.BeginWall(c)
		searchSeed := rt.p.Seed + uint64(rt.slice)*7919
		var init [][]int
		if rt.lastAlloc != nil && !rt.p.DisableWarmStart {
			// Seed the previous allocation into the initial set: the
			// search still explores globally, but ties resolve toward
			// the incumbent, avoiding config churn between quanta.
			prev := make([]int, nBatch)
			for i, b := range rt.lastAlloc.Batch {
				prev[i] = config.Resource{Core: b.Core, Cache: b.Cache}.Index()
			}
			init = [][]int{prev}
		}
		algo, evals := "dds", 0
		dimsScored := 0
		if rt.p.Searcher == SearchGA {
			obj := rt.separableObjective(thr, pwr, lcRes, budgetW).Func()
			r := ga.Search(ga.Objective(obj), ga.Params{
				Dims:       nBatch,
				NumConfigs: config.NumResources,
				Seed:       searchSeed,
				Init:       init,
			})
			best, evals, algo = r.Best, r.Evals, "ga"
			dimsScored = r.Evals * nBatch
		} else {
			params := rt.p.DDS
			params.Dims = nBatch
			params.NumConfigs = config.NumResources
			params.Seed = searchSeed
			params.Init = init
			var r dds.Result
			if rt.referenceSearch != nil {
				r = rt.referenceSearch(thr, pwr, lcRes, budgetW, params)
			} else {
				r = dds.SearchSeparable(rt.separableObjective(thr, pwr, lcRes, budgetW), params)
			}
			best, evals = r.Best, r.Evals
			dimsScored = r.DimsScored
		}
		searchWall.End(c, "core.search")
		if traced {
			c.Emit(obs.Mark(obs.EventSearch).With("algo", algo).With("evals", obs.Itoa(evals)).
				With("dims", obs.Itoa(dimsScored)))
			c.Add(obs.MetricSearchEvals, obs.Label("algo", algo), float64(evals))
			c.Add(obs.MetricSearchDims, obs.Label("algo", algo), float64(dimsScored))
			c.Add(obs.MetricSearchDimsSaved, obs.Label("algo", algo), float64(evals*nBatch-dimsScored))
		}
	}

	budgetWall := obs.BeginWall(c)
	alloc := rt.buildAllocation(best, lcRes)
	rt.applyQuarantine(&alloc)
	rt.repairCache(&alloc)
	rt.enforceBudget(&alloc, pwr, budgetW)
	budgetWall.End(c, "core.budget")
	if traced {
		rt.emitAllocation(&alloc)
	}

	// Record the predictions behind the applied allocation: the
	// divergence detector compares them against the slice's measured
	// metrics (and TrackAccuracy logs the errors for Fig. 5b).
	rt.predThr = make([]float64, nBatch)
	rt.predPwr = make([]float64, nBatch)
	for i, b := range alloc.Batch {
		if b.Gated {
			rt.predThr[i], rt.predPwr[i] = 0, 0
			continue
		}
		col := config.Resource{Core: b.Core, Cache: b.Cache}.Index()
		rt.predThr[i] = thr.At(rt.batchRow(i), col)
		rt.predPwr[i] = pwr.At(rt.batchRow(i), col)
	}

	cp := alloc
	rt.lastAlloc = &cp
	return alloc, overheadSec
}

// predictionsValid rejects reconstructions carrying non-finite values
// in any row the decision reads — one NaN cell would otherwise steer
// the QoS scan and the search arbitrarily.
func (rt *Runtime) predictionsValid(thr, pwr, lat, svc *sgd.Prediction) bool {
	ok := func(p *sgd.Prediction, row int) bool {
		for j := 0; j < p.Cols; j++ {
			if v := p.At(row, j); math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	for i := range rt.batch {
		if !ok(thr, rt.batchRow(i)) || !ok(pwr, rt.batchRow(i)) {
			return false
		}
	}
	for k := range rt.svcs {
		if !ok(pwr, rt.lcPowerRow(k)) || !ok(lat, rt.latRow(k)) || !ok(svc, rt.latRow(k)) {
			return false
		}
	}
	return true
}

// decideFallback applies the safe-fallback allocation: every service
// at its strongest point (widest cores, four ways) and every batch
// job at the narrowest configuration with one way — the QoS-safest,
// lowest-power corner of the space, chosen without consulting the
// distrusted reconstructions. The power budget is not enforced here:
// the all-narrowest batch floor is the same floor enforceBudget
// converges to, and gating on predictions that just failed validation
// would be arbitrary.
func (rt *Runtime) decideFallback(thr, pwr, lat *sgd.Prediction) sim.Allocation {
	alloc := sim.Allocation{Batch: make([]sim.BatchAssign, len(rt.batch))}
	for k, sv := range rt.svcs {
		if k == 0 {
			alloc.LCCores = sv.cores
			alloc.LCCore = config.Widest
			alloc.LCCache = config.FourWays
			continue
		}
		alloc.ExtraLC = append(alloc.ExtraLC, sim.LCAssign{
			Cores: sv.cores, Core: config.Widest, Cache: config.FourWays,
		})
	}
	for i := range alloc.Batch {
		alloc.Batch[i] = sim.BatchAssign{Core: config.Narrowest, Cache: config.OneWay}
	}
	rt.applyQuarantine(&alloc)
	rt.repairCache(&alloc)

	// Keep predicting so the divergence detector can observe the model
	// re-converging and lift degraded mode.
	rt.predThr = make([]float64, len(rt.batch))
	rt.predPwr = make([]float64, len(rt.batch))
	for i, b := range alloc.Batch {
		if b.Gated {
			continue
		}
		col := config.Resource{Core: b.Core, Cache: b.Cache}.Index()
		rt.predThr[i] = thr.At(rt.batchRow(i), col)
		rt.predPwr[i] = pwr.At(rt.batchRow(i), col)
	}
	for k, sv := range rt.svcs {
		var res config.Resource
		switch {
		case k == 0:
			res = config.Resource{Core: alloc.LCCore, Cache: alloc.LCCache}
		case k-1 < len(alloc.ExtraLC):
			res = config.Resource{Core: alloc.ExtraLC[k-1].Core, Cache: alloc.ExtraLC[k-1].Cache}
		default:
			continue
		}
		sv.predPwr = pwr.At(rt.lcPowerRow(k), res.Index())
		if lat != nil {
			sv.predLat = lat.At(rt.latRow(k), res.Index())
		}
	}

	cp := alloc
	rt.lastAlloc = &cp
	return alloc
}

// applyQuarantine compensates for cores the machine reported failed:
// the primary service is granted one replacement core per failed LC
// core (the machine drops dead servers from its queue, so without
// compensation the service runs short-handed until relocate crawls
// back one core per slice), and one batch job is gated per failed
// batch core so the multiplexing factor and the power accounting
// reflect the live core count instead of the nominal one.
func (rt *Runtime) applyQuarantine(alloc *sim.Allocation) {
	if rt.p.DisableResilience {
		return
	}
	if rt.failedLC > 0 && alloc.LCCores > 0 {
		total := alloc.LCCores
		for _, x := range alloc.ExtraLC {
			total += x.Cores
		}
		add := rt.failedLC
		if room := rt.nCores - 1 - total; add > room {
			add = room
		}
		if add > 0 {
			alloc.LCCores += add
		}
	}
	if rt.failedBatch > 0 {
		q := rt.failedBatch
		for i := len(alloc.Batch) - 1; i >= 0 && q > 0; i-- {
			if !alloc.Batch[i].Gated {
				alloc.Batch[i].Gated = true
				q--
			}
		}
	}
}

// loadAt returns the offered load for service k, zero when absent.
func loadAt(qps []float64, k int) float64 {
	if k >= len(qps) {
		return 0
	}
	return qps[k]
}

// observeProfiles extracts the widest/narrowest samples from the two
// profiling windows and records them (with measurement noise) in the
// matrices.
func (rt *Runtime) observeProfiles(profile []sim.PhaseResult) {
	if len(profile) < 2 {
		return
	}
	a, b := profile[0], profile[1]
	for i := range rt.batch {
		if i >= len(a.BatchBIPS) || i >= len(b.BatchBIPS) ||
			i >= len(a.BatchPowerW) || i >= len(b.BatchPowerW) {
			continue
		}
		wide, narrow := a, b
		if i%2 != 0 { // odd jobs ran narrowest in window A
			wide, narrow = b, a
		}
		row := rt.batchRow(i)
		if v := wide.BatchBIPS[i]; rt.validSample(v) {
			rt.thrM.Observe(row, rt.widestIdx, sim.Measure(rt.r, v, profileNoise))
		}
		if v := wide.BatchPowerW[i]; rt.validSample(v) {
			rt.pwrM.Observe(row, rt.widestIdx, sim.Measure(rt.r, v, profileNoise))
		}
		if v := narrow.BatchBIPS[i]; rt.validSample(v) {
			rt.thrM.Observe(row, rt.narrowestIdx, sim.Measure(rt.r, v, profileNoise))
		}
		if v := narrow.BatchPowerW[i]; rt.validSample(v) {
			rt.pwrM.Observe(row, rt.narrowestIdx, sim.Measure(rt.r, v, profileNoise))
		}
	}
	for k := range rt.svcs {
		if v := servicePower(a, k); rt.validSample(v) {
			rt.pwrM.Observe(rt.lcPowerRow(k), rt.lcWidestIdx, sim.Measure(rt.r, v, profileNoise))
		}
		if v := servicePower(b, k); rt.validSample(v) {
			rt.pwrM.Observe(rt.lcPowerRow(k), rt.lcNarrowIdx, sim.Measure(rt.r, v, profileNoise))
		}
	}
}

// servicePower extracts service k's per-core power from a phase result.
func servicePower(pr sim.PhaseResult, k int) float64 {
	if k == 0 {
		return pr.LCCorePowerW
	}
	if k-1 < len(pr.ExtraLCPowerW) {
		return pr.ExtraLCPowerW[k-1]
	}
	return 0
}

// scanQoS picks the cheapest configuration whose predicted tail
// latency meets the (derated) QoS target for service k: the scan
// prefers the lowest cache allocation, then the least predicted power
// (§VI-A). The bool reports whether any configuration was feasible.
func (rt *Runtime) scanQoS(sv *svcState, k int, lat, pwr, svc *sgd.Prediction, qps float64) (config.Resource, bool) {
	if !sv.haveP99 {
		// Cold start: no measured tail latency anchors the service's
		// row yet, so predictions are pure extrapolation from the
		// training variants. Run the first quantum at the strongest
		// point; one slice of measurement calibrates the row.
		return config.Resource{Core: config.Widest, Cache: config.FourWays}, true
	}
	if sv.lastP99Ms > sv.app.QoSTargetMs {
		// Measured violation: jump to the widest configuration in the
		// next timeslice (§VIII-D3, Fig. 8c) and let the backlog drain
		// before resuming optimisation.
		return config.Resource{Core: config.Widest, Cache: config.FourWays}, true
	}
	// Derate the QoS target while the running service's latency row is
	// young: with few clean measurements the reconstruction leans on
	// the training variants alone, and an optimistic error near the
	// saturation knee costs hundreds of milliseconds of backlog.
	confidence := 0.4 + 0.15*float64(sv.cleanSlices)
	if confidence > 1 {
		confidence = 1
	}
	target := qosSafety * sv.app.QoSTargetMs * confidence
	lcRow := lat.Row(rt.latRow(k))
	svcRow := svc.Row(rt.latRow(k))
	bestIdx := -1
	for j := 0; j < config.NumResources; j++ {
		if lcRow[j] > target {
			continue
		}
		// Utilisation veto: a configuration whose predicted mean
		// service time would put the offered load above maxUtil of the
		// service's capacity is one queueing knee away from a backlog
		// spiral — reject it no matter what the latency row claims.
		// Predictions for configurations the service has never been
		// measured on carry extra error, so they are derated by a
		// probe margin before the check.
		if !rt.p.DisableUtilVeto && sv.cores > 0 {
			predUtil := qps * svcRow[j] * 1e-3 / float64(sv.cores)
			if !rt.svcM.Known(rt.latRow(k), j) {
				predUtil *= probeMargin
			}
			if predUtil > maxUtil {
				continue
			}
		}
		if bestIdx < 0 {
			bestIdx = j
			continue
		}
		// j mod NumCacheAllocs is j's cache index (Resource.Index),
		// and the indices rank the allocations in increasing order.
		cur, inc := j%config.NumCacheAllocs, bestIdx%config.NumCacheAllocs
		switch {
		case cur < inc:
			bestIdx = j
		case cur == inc &&
			pwr.At(rt.lcPowerRow(k), j) < pwr.At(rt.lcPowerRow(k), bestIdx):
			bestIdx = j
		}
	}
	if bestIdx < 0 {
		// Nothing predicted feasible: fall back to the strongest point.
		return config.Resource{Core: config.Widest, Cache: config.FourWays}, false
	}
	return config.ResourceByIndex(bestIdx), true
}

// relocate adjusts one service's core count: reclaim one batch core
// per timeslice while the measured latency violates QoS even on the
// widest configuration (Fig. 8c), and yield one back when the measured
// latency has sufficient slack (§VI-A, §VIII-D3). Yields are gated on
// the predicted post-yield utilisation staying clear of the knee —
// otherwise a service whose true requirement exceeds its initial
// allocation would oscillate between yielding and violating.
func (rt *Runtime) relocate(sv *svcState, k int, svcPred *sgd.Prediction, qps float64) {
	violatingAtWidest := sv.haveP99 && sv.lastP99Ms > sv.app.QoSTargetMs &&
		sv.lastRes.Core == config.Widest
	if violatingAtWidest {
		if rt.totalLCCores() < rt.nCores-1 {
			sv.cores++
		}
		return
	}
	slackOK := sv.haveP99 && sv.lastP99Ms <= (1-slackYield)*sv.app.QoSTargetMs
	if !slackOK || sv.cores <= sv.initCores {
		return
	}
	// Post-yield utilisation at the current configuration must keep
	// headroom below the veto threshold.
	svcMs := svcPred.At(rt.latRow(k), sv.lastRes.Index())
	postCores := float64(sv.cores - 1)
	if postCores <= 0 || qps*svcMs*1e-3/postCores > 0.9*maxUtil {
		return
	}
	sv.cores--
}

// totalLCCores sums the cores currently held by every service.
func (rt *Runtime) totalLCCores() int {
	n := 0
	for _, sv := range rt.svcs {
		n += sv.cores
	}
	return n
}

// buildAllocation converts the DDS decision vector plus the services'
// choices into a machine allocation.
func (rt *Runtime) buildAllocation(best []int, lcRes []config.Resource) sim.Allocation {
	alloc := sim.Allocation{Batch: make([]sim.BatchAssign, len(rt.batch))}
	for k, sv := range rt.svcs {
		if k == 0 {
			alloc.LCCores = sv.cores
			alloc.LCCore = lcRes[k].Core
			alloc.LCCache = lcRes[k].Cache
			continue
		}
		alloc.ExtraLC = append(alloc.ExtraLC, sim.LCAssign{
			Cores: sv.cores,
			Core:  lcRes[k].Core,
			Cache: lcRes[k].Cache,
		})
	}
	for i := range alloc.Batch {
		res := config.ResourceByIndex(best[i])
		alloc.Batch[i] = sim.BatchAssign{Core: res.Core, Cache: res.Cache}
	}
	return alloc
}

// repairCache deterministically shrinks the largest batch cache
// allocations until the way budget holds — the hard backstop behind
// the soft penalty.
func (rt *Runtime) repairCache(alloc *sim.Allocation) {
	hasLC := len(rt.svcs) > 0
	for alloc.TotalWays(hasLC) > config.LLCWays {
		biggest, bi := config.HalfWay, -1
		for i, b := range alloc.Batch {
			if b.Gated {
				continue
			}
			if b.Cache > biggest {
				biggest, bi = b.Cache, i
			}
		}
		if bi < 0 {
			shrunk := false
			if hasLC && alloc.LCCache > config.HalfWay {
				alloc.LCCache = config.CacheAllocs[alloc.LCCache.Index()-1]
				shrunk = true
			}
			for x := range alloc.ExtraLC {
				if alloc.ExtraLC[x].Cache > config.HalfWay {
					alloc.ExtraLC[x].Cache = config.CacheAllocs[alloc.ExtraLC[x].Cache.Index()-1]
					shrunk = true
					break
				}
			}
			if !shrunk {
				return // nothing left to shrink
			}
			continue
		}
		alloc.Batch[bi].Cache = config.CacheAllocs[alloc.Batch[bi].Cache.Index()-1]
	}
}

// enforceBudget gates batch cores in descending order of predicted
// power until the predicted chip power fits the budget (§VI-B). A
// small tolerance avoids gating on prediction jitter; genuine
// violations shrink within a timeslice as measurements flow back.
func (rt *Runtime) enforceBudget(alloc *sim.Allocation, pwr *sgd.Prediction, budgetW float64) {
	const tol = 1.02
	fixed := power.LLCWayW*config.LLCWays + power.UncorePerCoreW*float64(rt.nCores)
	for _, sv := range rt.svcs {
		fixed += float64(sv.cores) * sv.predPwr
	}
	predicted := func() float64 {
		total := fixed
		for i, b := range alloc.Batch {
			if b.Gated {
				total += power.GatedCoreW
				continue
			}
			col := config.Resource{Core: b.Core, Cache: b.Cache}.Index()
			total += pwr.At(rt.batchRow(i), col)
		}
		return total
	}
	for predicted() > budgetW*tol {
		// Gate the hungriest active job.
		worst, wi := 0.0, -1
		for i, b := range alloc.Batch {
			if b.Gated {
				continue
			}
			col := config.Resource{Core: b.Core, Cache: b.Cache}.Index()
			if p := pwr.At(rt.batchRow(i), col); p > worst {
				worst, wi = p, i
			}
		}
		if wi < 0 {
			return // everything already gated; LC + uncore is the floor
		}
		alloc.Batch[wi].Gated = true
	}
}
