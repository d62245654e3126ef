package main

import (
	"math"

	"cuttlesys/internal/obs"
	"cuttlesys/internal/stats"
)

// modeledDecideMs is the scheduling compute the harness charges per
// decision (core.Params.OverheadSec default, Table II's 4.8 + 1.3 ms).
// core.decide_over_modeled sets the measured decision against it.
const modeledDecideMs = 6.1

// spanLayers lists every span name other than the step root, so each
// one's share is reported and the shares can be checked to close.
func spanLayers(layer string) []string {
	return []string{
		layer + ".decide", layer + ".profile", layer + ".feedback",
		spanRoute, spanArbitrate, spanAfterSlice, spanWarmStart, spanProvision,
	}
}

// tracedLayers turns one traced run into per-layer metrics: self-time
// shares and latencies from the bench's own spans, the phase rows the
// obs.Profile already keeps, and the counts that repeat exactly for a
// seed. Wall-time figures cover the timed window only; counts cover the
// whole run, like the sim.* metrics.
func tracedLayers(def *workloadDef, r *rig, tr *tracer, res *runResult) map[string]float64 {
	out := map[string]float64{}
	byName, stepNs := tr.summarize(res.Warmup)
	share := func(name string) float64 {
		st := byName[name]
		if st == nil || stepNs == 0 {
			return 0
		}
		return float64(st.selfNs) / float64(stepNs)
	}
	closed := 0.0
	for _, name := range spanLayers(def.layer) {
		out[name+"_share"] = share(name)
		closed += share(name)
	}
	out["step.self_share"] = share(spanStep)
	out["step.shares_sum"] = closed + share(spanStep)
	if st := byName[spanStep]; st != nil && res.MachineSlices > 0 {
		out["step.self_us_per_machine_slice"] = float64(st.selfNs) / 1e3 / float64(res.MachineSlices)
	}
	if st := byName[def.layer+".decide"]; st != nil {
		p50 := stats.Percentile(st.durMs, 0.50)
		out[def.layer+".decide_ms_p50"] = p50
		out[def.layer+".decide_ms_p95"] = stats.Percentile(st.durMs, 0.95)
		if def.layer == "core" {
			out["core.decide_over_modeled"] = p50 / modeledDecideMs
		}
	}
	out["fleet.route_us_mean"] = byName[spanRoute].meanDurMs() * 1e3
	out["fleet.arbitrate_us_mean"] = byName[spanArbitrate].meanDurMs() * 1e3
	out["modelplane.warmstart_ms_mean"] = byName[spanWarmStart].meanDurMs()
	out["ctrlplane.provision_ms_mean"] = byName[spanProvision].meanDurMs()

	// Existing obs.Profile rows, copied as they are.
	if r.recorder != nil {
		for _, row := range r.recorder.Profile().Snapshot() {
			if row.Count == 0 {
				continue
			}
			meanNs := float64(row.WallNs) / float64(row.Count)
			switch row.Phase {
			case "core.reconstruct":
				out["core.reconstruct_ms_mean"] = meanNs / 1e6
				out["core.reconstruct_alloc_kb_mean"] = float64(row.AllocBytes) / float64(row.Count) / 1024
			case "core.search":
				out["core.search_ms_mean"] = meanNs / 1e6
			case "core.scan":
				out["core.scan_us_mean"] = meanNs / 1e3
			case "core.budget":
				out["core.budget_us_mean"] = meanNs / 1e3
			case "core.observe":
				out["core.observe_us_mean"] = meanNs / 1e3
			}
		}
		sums := map[string]float64{}
		for _, s := range r.recorder.Registry().Snapshot() {
			sums[s.Name] += s.Value
		}
		// Counter series cover the whole run, so divide by every
		// decision taken, warm-up included.
		decides := 0
		for _, s := range tr.spans {
			if s.Name == "core.decide" {
				decides++
			}
		}
		if decides > 0 {
			out["core.sgd_iters_per_decide"] = sums[obs.MetricSGDIters] / float64(decides)
			out["core.search_evals_per_decide"] = sums[obs.MetricSearchEvals] / float64(decides)
		}
		if scored, saved := sums[obs.MetricSearchDims], sums[obs.MetricSearchDimsSaved]; scored+saved > 0 {
			out["core.search_dims_saved_frac"] = saved / (scored + saved)
		}
		out["core.fallback_slices"] = sums[obs.MetricFallbacks]
		out["harness.profile_retries"] = sums[obs.MetricProfileRetries]
		if res.OpsAttempted > 0 {
			out["obs.events_per_machine_slice"] = float64(r.recorder.Len()) / float64(res.OpsAttempted)
		}
	}
	if r.runtimes != nil {
		errs := map[string][]float64{}
		for _, rt := range r.runtimes() {
			acc := rt.AccuracyErrors()
			for _, k := range []string{"throughput", "power", "latency"} {
				for _, e := range acc[k] {
					if !math.IsNaN(e) && !math.IsInf(e, 0) {
						errs[k] = append(errs[k], math.Abs(e))
					}
				}
			}
		}
		out["core.pred_err_thr_p50_pct"] = stats.Percentile(errs["throughput"], 0.50)
		out["core.pred_err_pwr_p50_pct"] = stats.Percentile(errs["power"], 0.50)
		out["core.pred_err_lat_p50_pct"] = stats.Percentile(errs["latency"], 0.50)
	}
	if r.surface != nil && res.OpsAttempted > 0 {
		builds, lookups := r.surface()
		out["sim.table_builds_per_machine_slice"] = float64(builds) / float64(res.OpsAttempted)
		out["sim.table_lookups_per_machine_slice"] = float64(lookups) / float64(res.OpsAttempted)
	}
	if r.mgr != nil {
		out["ctrlplane.transitions"] = float64(len(r.mgr.Transitions()))
		out["ctrlplane.membership_events"] = float64(len(r.mgr.Membership()))
	}
	if r.plane != nil {
		pub, agg, warm := r.plane.Totals()
		out["modelplane.publishes"] = float64(pub)
		out["modelplane.aggregates"] = float64(agg)
		out["modelplane.warm_starts"] = float64(warm)
	}
	out["sim.power_over_budget_frac"] = res.Metrics["sim.power_over_budget_frac"]
	out["sim.shed_qps_frac"] = res.Metrics["sim.shed_qps_frac"]
	return out
}
