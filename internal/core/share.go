package core

import (
	"fmt"
	"hash/fnv"

	"cuttlesys/internal/sgd"
)

// Model-sharing participation (internal/modelplane.Sharer). The
// runtime's side of the fleet model-sharing plane: after every
// reconstruction it can capture the trained factor state per surface
// ("thr", "pwr", "lat", "svc"), and a warm start replaces the next
// reconstructions' cold SVD start with fleet-aggregated
// factors plus a shortened fine-tune sweep count. All of it is gated
// on Params.ShareFactors / an explicit WarmStart call, so a runtime
// outside a share-enabled fleet behaves byte-identically to one built
// before the plane existed.

// samplingCleanSlices is the clean-measurement count at which the QoS
// scan's confidence derate (0.4 + 0.15·cleanSlices, see scanQoS)
// reaches full confidence. Slices before that point are the sampling
// phase the share plane exists to shorten.
const samplingCleanSlices = 4

// ShareKey identifies the service mix this runtime's model is trained
// for — the aggregation key on the model-sharing plane. Machines
// whose keys match have identically shaped matrices with identical
// offline-training rows (same services, same training split, same
// rank), so their factors aggregate meaningfully; the per-machine
// batch draw deliberately stays out of the key, since batch rows are
// re-anchored by local profiling within a few quanta anyway.
func (rt *Runtime) ShareKey() uint64 {
	h := fnv.New64a()
	mix := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	rank := rt.p.SGD.Factors
	if rank == 0 {
		rank = 6 // the rank a zero sgd.Params.Factors trains at
	}
	mix("cuttlesys-mix-v1")
	mix(fmt.Sprintf("train=%d/%d lc=%d jobs=%d rank=%d",
		NTrainBatch, rt.p.TrainSeed, nTrainLC, len(rt.batch), rank))
	for _, sv := range rt.svcs {
		mix(sv.app.Name)
	}
	return h.Sum64()
}

// ExportFactors returns the factor state captured by the latest
// reconstruction. It errors until a share-enabled runtime has
// completed its first decision quantum — the plane skips such
// machines rather than publishing untrained factors (the
// sgd.ErrColdModel discipline).
func (rt *Runtime) ExportFactors() (map[string]*sgd.Factors, error) {
	if !rt.p.ShareFactors {
		return nil, fmt.Errorf("core: factor sharing disabled")
	}
	if len(rt.factors) == 0 {
		return nil, fmt.Errorf("core: no reconstruction completed yet: %w", sgd.ErrColdModel)
	}
	return rt.factors, nil
}

// WarmStart seeds the next reconstructions from fleet-aggregated
// factors: the warm set becomes the standing init for every surface
// it covers (local measurements still accumulate in the observation
// matrices and dominate the fit as they grow), fineTuneIters bounds
// the per-slice SGD sweeps, and confidence credits each service's
// clean-slice count so the QoS scan's derate phase — the sampling
// phase — shortens accordingly.
func (rt *Runtime) WarmStart(fac map[string]*sgd.Factors, fineTuneIters, confidence int) {
	if len(fac) == 0 {
		return
	}
	rt.warm = fac
	rt.warmIters = fineTuneIters
	rt.warmStarted = true
	for _, sv := range rt.svcs {
		sv.cleanSlices += confidence
	}
}

// WarmStarted reports whether the runtime imported fleet factors.
func (rt *Runtime) WarmStarted() bool { return rt.warmStarted }

// SamplingQuanta counts the decision quanta spent in the sampling
// phase: slices where some service still lacked a measured tail
// latency or full scan confidence. It is the cost warm-starting cuts,
// and the warmstart report's headline metric.
func (rt *Runtime) SamplingQuanta() int { return rt.samplingQuanta }

// shareParams specialises the SGD parameters for one surface: the
// warm factor set (when imported) replaces the cold init and caps the
// sweep count at the fine-tune budget.
func (rt *Runtime) shareParams(base sgd.Params, surface string) sgd.Params {
	if rt.warm == nil {
		return base
	}
	base.Warm = rt.warm[surface]
	base.WarmIters = rt.warmIters
	return base
}

// noteSampling charges the current decision quantum to the sampling
// phase if any service is still calibrating. Pure accounting — it
// never influences the decision itself.
func (rt *Runtime) noteSampling() {
	for _, sv := range rt.svcs {
		if !sv.haveP99 || sv.cleanSlices < samplingCleanSlices {
			rt.samplingQuanta++
			return
		}
	}
}
