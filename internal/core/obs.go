package core

import (
	"cuttlesys/internal/harness"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/sgd"
	"cuttlesys/internal/sim"
)

var _ harness.Observable = (*Runtime)(nil)

// SetCollector implements harness.Observable: the driver hands the
// runtime its slice-scoped collector, so marks emitted during a
// decision inherit the slice's simulated start time and index. Nil
// detaches (reverts to the zero-cost no-op).
func (rt *Runtime) SetCollector(c obs.Collector) { rt.obs = obs.OrNop(c) }

// emitReconstruction records the SGD work behind one decision: per
// matrix, the iterations the reconstruction ran and how many observed
// cells anchored it. Only called when the collector is enabled.
func (rt *Runtime) emitReconstruction(thr, pwr, lat, svc *sgd.Prediction) {
	c := rt.obs
	for _, m := range []struct {
		name string
		p    *sgd.Prediction
	}{
		{"throughput", thr}, {"power", pwr}, {"latency", lat}, {"service", svc},
	} {
		if m.p == nil {
			continue
		}
		labels := obs.Label("matrix", m.name)
		c.Add(obs.MetricSGDIters, labels, float64(m.p.Iters))
		c.Set(obs.MetricSGDObserved, labels, float64(m.p.Observed))
	}
}

// emitAllocation records the decision's batch-side shape: the cache
// ways handed to each running job and how many jobs the budget
// enforcement gated. Only called when the collector is enabled.
func emitAllocation(c obs.Collector, alloc *sim.Allocation) {
	gated := 0
	for _, b := range alloc.Batch {
		if b.Gated {
			gated++
			continue
		}
		c.Observe(obs.MetricBatchWays, obs.NoLabels, b.Cache.Ways())
	}
	c.Set(obs.MetricGatedJobs, obs.NoLabels, float64(gated))
	if gated > 0 {
		c.Emit(obs.Mark(obs.EventGate).With("jobs", obs.Itoa(gated)))
	}
}
