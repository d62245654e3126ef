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

// strongest is a latency-critical service's QoS-safest point: the
// widest cores with four ways.
var strongest = config.Resource{Core: config.Widest, Cache: config.FourWays}

// decision is choose's input: the quantum's four reconstructed
// surfaces and a by-value snapshot of everything else the controller
// reads. choose reads only Searcher, DDS, DisableUtilVeto,
// DisableWarmStart and DisableResilience of p.
type decision struct {
	thr, pwr, lat, svc    *sgd.Prediction
	svcM                  *sgd.Matrix // read only for its known mask
	ctl                   []control   // per service, primary first
	lastAlloc             *sim.Allocation
	failedLC, failedBatch int
	qps                   []float64 // offered load, one per service
	budgetW               float64
	seed                  uint64
	nBatch                int
	p                     Params
	fallback              bool // the safe-fallback allocation; see choose
	obs                   obs.Collector
}

// choice is choose's output: the allocation, each service's next core
// count, scanned configuration and predictions, the predictions behind
// each batch job's assignment, and the batch search's result.
type choice struct {
	alloc            sim.Allocation
	svcs             []svcChoice
	predThr, predPwr []float64
	search           dds.Result
}

type svcChoice struct {
	res              config.Resource
	cores            int
	predPwr, predLat float64
}

// DecideMulti implements the Resource Controller (§IV-B, Fig. 2) in two
// stages: estimate folds the profiling samples into the matrices and
// reconstructs the surfaces, choose turns them into an allocation, and
// apply installs the choice as the runtime's state. qps carries one
// offered load per service, primary first.
func (rt *Runtime) DecideMulti(profile []sim.PhaseResult, qps []float64, budgetW float64) (sim.Allocation, float64) {
	rt.slice++
	rt.noteSampling()
	if math.IsNaN(budgetW) || budgetW < 0 {
		// A garbage budget reading fails safe: a zero budget gates the
		// batch side down to its floor instead of propagating NaN
		// through the gating arithmetic.
		budgetW = 0
	}
	in := rt.estimate(profile, qps, budgetW)
	out := choose(in, &rt.scratch)
	rt.apply(out)
	return out.alloc, overheadSec
}

// estimate runs the decision's first stage (§V): observe, reconstruct,
// and check that the surfaces can be trusted.
func (rt *Runtime) estimate(profile []sim.PhaseResult, qps []float64, budgetW float64) decision {
	c := rt.obs
	ow := obs.BeginWall(c)
	rt.observeProfiles(profile)
	ow.End(c, "core.observe")
	rw := obs.BeginWall(c)
	thr, pwr, lat, svc := rt.reconstructAll()
	rw.End(c, "core.reconstruct")
	if c.Enabled() {
		rt.emitReconstruction(thr, pwr, lat, svc)
	}
	in := decision{
		thr: thr, pwr: pwr, lat: lat, svc: svc, svcM: rt.svcM,
		ctl:       make([]control, len(rt.svcs)),
		lastAlloc: rt.lastAlloc, failedLC: rt.failedLC, failedBatch: rt.failedBatch,
		qps: make([]float64, len(rt.svcs)), budgetW: budgetW, seed: rt.p.Seed + uint64(rt.slice)*7919,
		nBatch: len(rt.batch), p: rt.p, obs: c,
	}
	copy(in.qps, qps) // a service with no load entry offers none
	for k, sv := range rt.svcs {
		in.ctl[k] = sv.control
	}
	in.fallback = !rt.p.DisableResilience && (rt.degraded || !predictionsValid(&in))
	return in
}

// apply installs a choice as the runtime's state. The predictions are
// what the divergence detector (and TrackAccuracy, for Fig. 5b)
// compares against the slice's measured metrics.
func (rt *Runtime) apply(out choice) {
	for k, sv := range rt.svcs {
		sv.cores, sv.predPwr, sv.predLat = out.svcs[k].cores, out.svcs[k].predPwr, out.svcs[k].predLat
	}
	rt.predThr, rt.predPwr = out.predThr, out.predPwr
	alloc := out.alloc
	rt.lastAlloc = &alloc
}

// predictionsValid rejects reconstructions carrying non-finite values
// in any row the decision reads — one NaN cell would otherwise steer
// the QoS scan and the search arbitrarily.
func predictionsValid(in *decision) bool {
	ok := func(p *sgd.Prediction, row int) bool {
		for j := 0; j < p.Cols; j++ {
			if v := p.At(row, j); math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	for i := 0; i < in.nBatch; i++ {
		if !ok(in.thr, batchRow(i)) || !ok(in.pwr, batchRow(i)) {
			return false
		}
	}
	for k := range in.ctl {
		if !ok(in.pwr, lcPowerRow(in.nBatch, k)) || !ok(in.lat, latRow(k)) || !ok(in.svc, latRow(k)) {
			return false
		}
	}
	return true
}

// choose makes one decision from its input alone: it fixes each
// latency-critical service's configuration via its QoS scan (§VI-A)
// and relocates its cores, explores the batch configuration space with
// parallel DDS (or the GA, for Fig. 10), compensates failed cores,
// repairs the way budget and enforces the power budget by gating cores
// (§VI-B). sc is the score-table scratch, retained across quanta.
//
// In fallback mode the reconstructions are distrusted, so the scan,
// relocation, search and budget steps are skipped: every service runs
// at its strongest point and every batch job at the narrowest
// configuration with one way — the QoS-safest, lowest-power corner and
// the floor enforceBudget converges to anyway; gating on distrusted
// predictions would be arbitrary. Predictions are still
// recorded so the divergence detector can observe the model
// re-converging and lift degraded mode.
func choose(in decision, sc *dds.SeparableObjective) choice {
	c := in.obs
	traced := c.Enabled()
	out := choice{svcs: make([]svcChoice, len(in.ctl))}
	for k := range out.svcs {
		out.svcs[k] = svcChoice{res: strongest, cores: in.ctl[k].cores}
	}
	var budgetWall obs.WallSample
	if in.fallback {
		if traced {
			c.Emit(obs.Mark(obs.EventFallback))
			c.Add(obs.MetricFallbacks, obs.NoLabels, 1)
		}
	} else {
		// Each service is scanned at its pre-relocation core count, and
		// relocation sees the services before it at their new counts.
		scanWall := obs.BeginWall(c)
		for k := range out.svcs {
			s := &out.svcs[k]
			s.res = scanQoS(&in, k)
			s.predPwr = in.pwr.At(lcPowerRow(in.nBatch, k), s.res.Index())
			s.predLat = in.lat.At(latRow(k), s.res.Index())
			s.cores = relocate(&in, k, out.svcs)
			if traced {
				c.Emit(obs.Mark(obs.EventScan).With("service", obs.Itoa(k)).
					With("cfg", s.res.Core.String()).With("ways", obs.Float(s.res.Cache.Ways())))
				svcLabel := obs.Label("service", obs.Itoa(k))
				c.Set(obs.MetricLCCores, svcLabel, float64(s.cores))
				c.Set(obs.MetricLCWays, svcLabel, s.res.Cache.Ways())
			}
		}
		scanWall.End(c, "core.scan")

		// Batch jobs: design-space exploration over the 108-way per-job
		// domain (§VI).
		if in.nBatch > 0 {
			searchWall := obs.BeginWall(c)
			params := searchParams(&in)
			separableObjective(sc, &in, out.svcs)
			algo := "dds"
			if in.p.Searcher == SearchGA {
				r := ga.Search(ga.Objective(sc.Func()), ga.Params{
					Dims: params.Dims, NumConfigs: params.NumConfigs, Seed: params.Seed, Init: params.Init,
				})
				out.search = dds.Result{Best: r.Best, BestVal: r.BestVal, Evals: r.Evals, DimsScored: r.Evals * in.nBatch}
				algo = "ga"
			} else {
				out.search = dds.SearchSeparable(sc, params)
			}
			searchWall.End(c, "core.search")
			if traced {
				evals, dims := out.search.Evals, out.search.DimsScored
				c.Emit(obs.Mark(obs.EventSearch).With("algo", algo).With("evals", obs.Itoa(evals)).
					With("dims", obs.Itoa(dims)))
				c.Add(obs.MetricSearchEvals, obs.Label("algo", algo), float64(evals))
				c.Add(obs.MetricSearchDims, obs.Label("algo", algo), float64(dims))
				c.Add(obs.MetricSearchDimsSaved, obs.Label("algo", algo), float64(evals*in.nBatch-dims))
			}
		}
		budgetWall = obs.BeginWall(c)
	}

	alloc := sim.Allocation{Batch: make([]sim.BatchAssign, in.nBatch)}
	for k, s := range out.svcs {
		alloc.SetService(k, sim.LCAssign{Cores: s.cores, Core: s.res.Core, Cache: s.res.Cache})
	}
	for i := range alloc.Batch {
		res := config.Resource{Core: config.Narrowest, Cache: config.OneWay}
		if !in.fallback {
			res = config.ResourceByIndex(out.search.Best[i])
		}
		alloc.Batch[i] = sim.BatchAssign{Core: res.Core, Cache: res.Cache}
	}
	if !in.p.DisableResilience {
		applyQuarantine(&alloc, in.failedLC, in.failedBatch)
	}
	repairCache(&alloc, len(in.ctl))
	if in.fallback {
		// The fallback predicts at the applied configurations, after
		// quarantine and repair.
		for k := range out.svcs {
			a := alloc.Service(k)
			col := config.Resource{Core: a.Core, Cache: a.Cache}.Index()
			out.svcs[k].predPwr = in.pwr.At(lcPowerRow(in.nBatch, k), col)
			out.svcs[k].predLat = in.lat.At(latRow(k), col)
		}
	} else {
		enforceBudget(&alloc, &in, out.svcs)
		budgetWall.End(c, "core.budget")
		if traced {
			emitAllocation(c, &alloc)
		}
	}

	out.predThr, out.predPwr = make([]float64, in.nBatch), make([]float64, in.nBatch)
	for i, b := range alloc.Batch {
		if b.Gated {
			continue
		}
		col := config.Resource{Core: b.Core, Cache: b.Cache}.Index()
		out.predThr[i] = in.thr.At(batchRow(i), col)
		out.predPwr[i] = in.pwr.At(batchRow(i), col)
	}
	out.alloc = alloc
	return out
}

// searchParams configures the quantum's batch search: one dimension
// per batch job over the 108-way domain, seeded per slice. Unless
// DisableWarmStart, the previous allocation joins the initial set: the
// search still explores globally, but ties resolve toward the
// incumbent, avoiding config churn between quanta.
func searchParams(in *decision) dds.Params {
	params := in.p.DDS
	params.Dims, params.NumConfigs, params.Seed = in.nBatch, config.NumResources, in.seed
	if in.lastAlloc != nil && !in.p.DisableWarmStart {
		prev := make([]int, in.nBatch)
		for i, b := range in.lastAlloc.Batch {
			prev[i] = config.Resource{Core: b.Core, Cache: b.Cache}.Index()
		}
		params.Init = [][]int{prev}
	}
	return params
}

// applyQuarantine compensates for cores the machine reported failed:
// the primary service is granted one replacement core per failed LC
// core (the machine drops dead servers from its queue, so without
// compensation the service runs short-handed until relocate crawls
// back one core per slice), and one batch job is gated per failed
// batch core so the multiplexing factor and the power accounting
// reflect the live core count instead of the nominal one.
func applyQuarantine(alloc *sim.Allocation, failedLC, failedBatch int) {
	if failedLC > 0 && alloc.LCCores > 0 {
		room := config.NumMachineCore - 1 - alloc.LCCores
		for _, x := range alloc.ExtraLC {
			room -= x.Cores
		}
		alloc.LCCores += max(0, min(failedLC, room))
	}
	for i := len(alloc.Batch) - 1; i >= 0 && failedBatch > 0; i-- {
		if !alloc.Batch[i].Gated {
			alloc.Batch[i].Gated = true
			failedBatch--
		}
	}
}

// observeProfiles extracts the widest/narrowest samples from the two
// profiling windows and records them (with measurement noise) in the
// matrices.
func (rt *Runtime) observeProfiles(profile []sim.PhaseResult) {
	if len(profile) < 2 {
		return
	}
	a, b := profile[0], profile[1]
	sample := func(m *sgd.Matrix, row, col int, v float64) {
		if rt.validSample(v) {
			m.Observe(row, col, sim.Measure(rt.r, v, profileNoise))
		}
	}
	for i := range rt.batch {
		if i >= len(a.BatchBIPS) || i >= len(b.BatchBIPS) ||
			i >= len(a.BatchPowerW) || i >= len(b.BatchPowerW) {
			continue
		}
		wide, narrow := a, b
		if i%2 != 0 { // odd jobs ran narrowest in window A
			wide, narrow = b, a
		}
		row := batchRow(i)
		sample(rt.thrM, row, rt.widestIdx, wide.BatchBIPS[i])
		sample(rt.pwrM, row, rt.widestIdx, wide.BatchPowerW[i])
		sample(rt.thrM, row, rt.narrowestIdx, narrow.BatchBIPS[i])
		sample(rt.pwrM, row, rt.narrowestIdx, narrow.BatchPowerW[i])
	}
	for k := range rt.svcs {
		if k >= len(a.LC) || k >= len(b.LC) {
			break
		}
		sample(rt.pwrM, lcPowerRow(len(rt.batch), k), rt.lcWidestIdx, a.LC[k].CorePowerW)
		sample(rt.pwrM, lcPowerRow(len(rt.batch), k), rt.lcNarrowIdx, b.LC[k].CorePowerW)
	}
}

// scanQoS picks the cheapest configuration whose predicted tail
// latency meets the (derated) QoS target for service k: the scan
// prefers the lowest cache allocation, then the least predicted power
// (§VI-A).
func scanQoS(in *decision, k int) config.Resource {
	sv := in.ctl[k]
	if !sv.haveP99 {
		// Cold start: no measured tail latency anchors the service's
		// row yet, so predictions are pure extrapolation from the
		// training variants. Run the first quantum at the strongest
		// point; one slice of measurement calibrates the row.
		return strongest
	}
	if sv.lastP99Ms > sv.qosMs {
		// Measured violation: jump to the widest configuration in the
		// next timeslice (§VIII-D3, Fig. 8c) and let the backlog drain
		// before resuming optimisation.
		return strongest
	}
	// Derate the QoS target while the running service's latency row is
	// young: with few clean measurements the reconstruction leans on
	// the training variants alone, and an optimistic error near the
	// saturation knee costs hundreds of milliseconds of backlog.
	confidence := 0.4 + 0.15*float64(sv.cleanSlices)
	if confidence > 1 {
		confidence = 1
	}
	target := qosSafety * sv.qosMs * confidence
	row, pwrRow, qps := latRow(k), lcPowerRow(in.nBatch, k), in.qps[k]
	bestIdx := -1
	for j := 0; j < config.NumResources; j++ {
		if in.lat.At(row, j) > target {
			continue
		}
		// Utilisation veto: a configuration whose predicted mean
		// service time would put the offered load above maxUtil of the
		// service's capacity is one queueing knee away from a backlog
		// spiral — reject it no matter what the latency row claims.
		// Predictions for configurations the service has never been
		// measured on carry extra error, so they are derated by a
		// probe margin before the check.
		if !in.p.DisableUtilVeto && sv.cores > 0 {
			predUtil := qps * in.svc.At(row, j) * 1e-3 / float64(sv.cores)
			if !in.svcM.Known(row, j) {
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
		case cur == inc && in.pwr.At(pwrRow, j) < in.pwr.At(pwrRow, bestIdx):
			bestIdx = j
		}
	}
	if bestIdx < 0 {
		// Nothing predicted feasible: fall back to the strongest point.
		return strongest
	}
	return config.ResourceByIndex(bestIdx)
}

// relocate returns service k's next core count: reclaim one batch core
// per timeslice while the measured latency violates QoS even on the
// widest configuration (Fig. 8c), and yield one back when the measured
// latency has sufficient slack (§VI-A, §VIII-D3). Yields are gated on
// the predicted post-yield utilisation staying clear of the knee —
// otherwise a service whose true requirement exceeds its initial
// allocation would oscillate between yielding and violating. svcs
// holds every service's current count.
func relocate(in *decision, k int, svcs []svcChoice) int {
	sv := in.ctl[k]
	if sv.haveP99 && sv.lastP99Ms > sv.qosMs && sv.lastRes.Core == config.Widest {
		total := 0
		for _, s := range svcs {
			total += s.cores
		}
		if total < config.NumMachineCore-1 {
			return sv.cores + 1
		}
		return sv.cores
	}
	slackOK := sv.haveP99 && sv.lastP99Ms <= (1-slackYield)*sv.qosMs
	if !slackOK || sv.cores <= sv.initCores {
		return sv.cores
	}
	// Post-yield utilisation at the current configuration must keep
	// headroom below the veto threshold.
	svcMs := in.svc.At(latRow(k), sv.lastRes.Index())
	postCores := float64(sv.cores - 1)
	if postCores <= 0 || in.qps[k]*svcMs*1e-3/postCores > 0.9*maxUtil {
		return sv.cores
	}
	return sv.cores - 1
}

// repairCache deterministically shrinks the largest batch cache
// allocations until the way budget holds — the hard backstop behind
// the soft penalty. Once no batch job can shrink, each pass shrinks
// service 0 and the first shrinkable extra service.
func repairCache(alloc *sim.Allocation, nSvcs int) {
	for alloc.TotalWays(nSvcs > 0) > config.LLCWays {
		biggest, bi := config.HalfWay, -1
		for i, b := range alloc.Batch {
			if !b.Gated && b.Cache > biggest {
				biggest, bi = b.Cache, i
			}
		}
		if bi >= 0 {
			alloc.Batch[bi].Cache = config.CacheAllocs[biggest.Index()-1]
			continue
		}
		shrunk := false
		for k := 0; k < nSvcs; k++ {
			s := alloc.Service(k)
			if s.Cache <= config.HalfWay {
				continue
			}
			s.Cache = config.CacheAllocs[s.Cache.Index()-1]
			alloc.SetService(k, s)
			shrunk = true
			if k > 0 {
				break
			}
		}
		if !shrunk {
			return // nothing left to shrink
		}
	}
}

// fixedPower is the chip power no batch assignment changes: the LLC,
// the uncore, and each service's cores at its predicted per-core power.
func fixedPower(svcs []svcChoice) float64 {
	p := power.FixedChipW
	for _, s := range svcs {
		p += float64(s.cores) * s.predPwr
	}
	return p
}

// enforceBudget gates batch cores in descending order of predicted
// power until the predicted chip power fits the budget (§VI-B). A
// small tolerance avoids gating on prediction jitter; genuine
// violations shrink within a timeslice as measurements flow back.
func enforceBudget(alloc *sim.Allocation, in *decision, svcs []svcChoice) {
	const tol = 1.02
	fixed := fixedPower(svcs)
	predicted := func() float64 {
		total := fixed
		for i, b := range alloc.Batch {
			if b.Gated {
				total += power.GatedCoreW
				continue
			}
			col := config.Resource{Core: b.Core, Cache: b.Cache}.Index()
			total += in.pwr.At(batchRow(i), col)
		}
		return total
	}
	for predicted() > in.budgetW*tol {
		// Gate the hungriest active job.
		worst, wi := 0.0, -1
		for i, b := range alloc.Batch {
			if b.Gated {
				continue
			}
			col := config.Resource{Core: b.Core, Cache: b.Cache}.Index()
			if p := in.pwr.At(batchRow(i), col); p > worst {
				worst, wi = p, i
			}
		}
		if wi < 0 {
			return // everything already gated; LC + uncore is the floor
		}
		alloc.Batch[wi].Gated = true
	}
}
