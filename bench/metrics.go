package main

// A metricDef names one reported number. The tables below are the
// benchmark's vocabulary: BENCHMARK.json, the README glossary and
// -compare all follow them, and bench_test.go checks they agree.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline by which an end-to-end metric
	// may worsen between two runs of the same seed before -compare calls
	// it worse: about three times the quartile spread of same-seed
	// repeats. sim.* metrics repeat bit for bit for a seed, so theirs is
	// 0: any worsening counts.
	bound float64
	// seedBound is the bound when the seeds differ, and the one
	// BENCHMARK.json carries: the benchmark driver runs every workload
	// under ten different seeds and wants each metric's quartile spread
	// within a third of it, and a different seed is a different
	// trajectory of the controller — other matrices filled, other
	// machines evicted — so the same code does other work. End-to-end
	// metrics without one are not in BENCHMARK.json: they are zero or
	// pinned at 1 on most workloads, or follow the seed's job mix too
	// closely.
	seedBound float64
	// moves says, for a per-layer metric, which end-to-end metric on
	// which workload it is expected to move.
	moves string
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.20, seedBound: 0.25},
	{name: "machine_slices_per_s", unit: "1/s", better: "higher", bound: 0.08, seedBound: 0.20},
	{name: "slice_wall_ms_p50", unit: "ms", better: "lower", bound: 0.08, seedBound: 0.20},
	{name: "slice_wall_ms_p95", unit: "ms", better: "lower", bound: 0.10, seedBound: 0.25},
	{name: "alloc_kb_per_machine_slice", unit: "KB", better: "lower", bound: 0.02, seedBound: 0.10},
	{name: "live_heap_mb_end", unit: "MB", better: "lower", bound: 0.05, seedBound: 0.10},
	{name: "sim.qos_met_frac", unit: "ratio", better: "higher"},
	{name: "sim.batch_instr_b_per_machine_slice", unit: "1e9instr", better: "higher"},
	{name: "sim.power_over_budget_frac", unit: "ratio", better: "lower"},
	{name: "sim.shed_qps_frac", unit: "ratio", better: "lower"},
	{name: "sim.p99_over_qos_p95", unit: "ratio", better: "lower", seedBound: 0.15},
}

// Where each group of layer metrics is expected to show end to end.
const (
	movesDecide    = "slice_wall_ms_p50, machine_slices_per_s on fleet-steady, single-machine; not substrate-baselines"
	movesWarm      = "slice_wall_ms_p95, machine_slices_per_s, sim.qos_met_frac on ops-churn; not fleet-steady"
	movesSearch    = "slice_wall_ms_p50 (about 12% share) on fleet-steady, single-machine; not substrate-baselines"
	movesSubstrate = "machine_slices_per_s, slice_wall_ms_p50 on substrate-baselines; at most 3% on fleet-steady"
	movesFleet     = "slice_wall_ms_p95 on fleet-steady, machine_slices_per_s on substrate-baselines; not single-machine"
	movesSetup     = "setup_s on all workloads; slice_wall_ms_p95 on ops-churn (mid-run provisioning)"
	movesAlloc     = "alloc_kb_per_machine_slice on the three CuttleSys workloads; not substrate-baselines"
	movesNothing   = "no end-to-end metric: tracing and obs are off in untraced runs"
	movesCount     = "sim.* metrics on the workload that reports it; a simulator-only speed-up leaves it identical"
	movesHost      = "every host-time metric: a shift here means the host changed, not the code"
	movesMemory    = "live_heap_mb_end, alloc_kb_per_machine_slice on the same workload"
)

var perLayer = []metricDef{
	// In-situ spans recorded by the bench's decorators.
	{name: "core.decide_share", unit: "ratio", better: "lower", moves: movesDecide},
	{name: "core.decide_ms_p50", unit: "ms", better: "lower", moves: movesDecide},
	{name: "core.decide_ms_p95", unit: "ms", better: "lower", moves: movesDecide},
	{name: "core.decide_over_modeled", unit: "ratio", better: "lower", moves: movesDecide},
	{name: "core.profile_share", unit: "ratio", better: "lower", moves: movesDecide},
	{name: "core.feedback_share", unit: "ratio", better: "lower", moves: movesDecide},
	{name: "baseline.decide_share", unit: "ratio", better: "lower", moves: movesSubstrate},
	{name: "baseline.decide_ms_p50", unit: "ms", better: "lower", moves: movesSubstrate},
	{name: "baseline.decide_ms_p95", unit: "ms", better: "lower", moves: movesSubstrate},
	{name: "baseline.profile_share", unit: "ratio", better: "lower", moves: movesSubstrate},
	{name: "baseline.feedback_share", unit: "ratio", better: "lower", moves: movesSubstrate},
	{name: "fleet.route_share", unit: "ratio", better: "lower", moves: movesFleet},
	{name: "fleet.arbitrate_share", unit: "ratio", better: "lower", moves: movesFleet},
	{name: "fleet.route_us_mean", unit: "us", better: "lower", moves: movesFleet},
	{name: "fleet.arbitrate_us_mean", unit: "us", better: "lower", moves: movesFleet},
	{name: "modelplane.afterslice_share", unit: "ratio", better: "lower", moves: movesWarm},
	{name: "modelplane.warmstart_share", unit: "ratio", better: "lower", moves: movesWarm},
	{name: "modelplane.warmstart_ms_mean", unit: "ms", better: "lower", moves: movesWarm},
	{name: "ctrlplane.provision_share", unit: "ratio", better: "lower", moves: movesSetup},
	{name: "ctrlplane.provision_ms_mean", unit: "ms", better: "lower", moves: movesSetup},
	{name: "step.self_share", unit: "ratio", better: "lower", moves: movesSubstrate},
	{name: "step.self_us_per_machine_slice", unit: "us", better: "lower", moves: movesSubstrate},
	{name: "step.shares_sum", unit: "ratio", better: "higher", moves: movesNothing},
	{name: "trace.slowdown_ratio", unit: "ratio", better: "lower", moves: movesNothing},

	// Rows the obs.Profile already keeps.
	{name: "core.reconstruct_ms_mean", unit: "ms", better: "lower", moves: movesDecide},
	{name: "core.search_ms_mean", unit: "ms", better: "lower", moves: movesSearch},
	{name: "core.scan_us_mean", unit: "us", better: "lower", moves: movesDecide},
	{name: "core.budget_us_mean", unit: "us", better: "lower", moves: movesDecide},
	{name: "core.observe_us_mean", unit: "us", better: "lower", moves: movesDecide},
	{name: "core.reconstruct_alloc_kb_mean", unit: "KB", better: "lower", moves: movesAlloc},

	// Counts that repeat exactly for a seed.
	{name: "core.sgd_iters_per_decide", unit: "count", better: "lower", moves: movesCount},
	{name: "core.search_evals_per_decide", unit: "count", better: "lower", moves: movesCount},
	{name: "core.search_dims_saved_frac", unit: "ratio", better: "higher", moves: movesCount},
	{name: "core.fallback_slices", unit: "count", better: "lower", moves: movesCount},
	{name: "core.pred_err_thr_p50_pct", unit: "%", better: "lower", moves: movesCount},
	{name: "core.pred_err_pwr_p50_pct", unit: "%", better: "lower", moves: movesCount},
	{name: "core.pred_err_lat_p50_pct", unit: "%", better: "lower", moves: movesCount},
	{name: "sim.table_builds_per_machine_slice", unit: "count", better: "lower", moves: movesCount},
	{name: "sim.table_lookups_per_machine_slice", unit: "count", better: "lower", moves: movesCount},
	{name: "sim.power_over_budget_frac", unit: "ratio", better: "lower", moves: movesCount},
	{name: "sim.shed_qps_frac", unit: "ratio", better: "lower", moves: movesCount},
	{name: "harness.profile_retries", unit: "count", better: "lower", moves: movesCount},
	{name: "ctrlplane.transitions", unit: "count", better: "lower", moves: movesCount},
	{name: "ctrlplane.membership_events", unit: "count", better: "lower", moves: movesCount},
	{name: "modelplane.publishes", unit: "count", better: "higher", moves: movesCount},
	{name: "modelplane.aggregates", unit: "count", better: "higher", moves: movesCount},
	{name: "modelplane.warm_starts", unit: "count", better: "higher", moves: movesCount},
	{name: "obs.events_per_machine_slice", unit: "count", better: "lower", moves: movesNothing},

	// Kernels timed in isolation.
	{name: "sgd.reconstruct_pair_cold_ms", unit: "ms", better: "lower", moves: movesDecide},
	{name: "sgd.reconstruct_pair_dense_ms", unit: "ms", better: "lower", moves: movesDecide},
	{name: "sgd.reconstruct_pair_factors_ms", unit: "ms", better: "lower", moves: movesWarm},
	{name: "sgd.reconstruct_warm_ms", unit: "ms", better: "lower", moves: movesWarm},
	{name: "sgd.reconstruct_serial_ms", unit: "ms", better: "lower", moves: movesDecide},
	{name: "sgd.reconstruct_hogwild_ms", unit: "ms", better: "lower", moves: movesDecide},
	{name: "dds.search_separable_ms", unit: "ms", better: "lower", moves: movesSearch},
	{name: "dds.search_reference_ms", unit: "ms", better: "lower", moves: movesSearch},
	{name: "dds.evals_per_search", unit: "count", better: "lower", moves: movesSearch},
	{name: "perf.table_build_us", unit: "us", better: "lower", moves: movesSubstrate},
	{name: "perf.table_lookup_ns", unit: "ns", better: "lower", moves: movesSubstrate},
	{name: "perf.model_ipc_ns", unit: "ns", better: "lower", moves: movesSubstrate},
	{name: "power.core_ns", unit: "ns", better: "lower", moves: movesSubstrate},
	{name: "qsim.step_us_per_kquery", unit: "us", better: "lower", moves: movesSubstrate},
	{name: "qsim.p99_batch_ns_per_k", unit: "ns", better: "lower", moves: movesSubstrate},
	{name: "qsim.p99_scalar_ns", unit: "ns", better: "lower", moves: movesSubstrate},
	{name: "sim.run_phase_us", unit: "us", better: "lower", moves: movesSubstrate},
	{name: "sim.run_multi_phase_us", unit: "us", better: "lower", moves: movesSubstrate},
	{name: "sim.new_machine_us", unit: "us", better: "lower", moves: movesSetup},
	{name: "core.new_cold_ms", unit: "ms", better: "lower", moves: movesSetup},
	{name: "core.new_cached_ms", unit: "ms", better: "lower", moves: movesWarm},
	{name: "harness.step_nogating_us", unit: "us", better: "lower", moves: movesSubstrate},
	{name: "fleet.step_nogating8_us", unit: "us", better: "lower", moves: movesFleet},
	{name: "ctrlplane.step_nogating8_us", unit: "us", better: "lower", moves: movesWarm},
	{name: "modelplane.publish_aggregate_us", unit: "us", better: "lower", moves: movesWarm},
	{name: "scenario.parse_us", unit: "us", better: "lower", moves: movesSetup},
	{name: "scenario.compile_us", unit: "us", better: "lower", moves: movesSetup},
	{name: "fault.observe_phase_ns", unit: "ns", better: "lower", moves: movesWarm},
	{name: "workload.mix_us", unit: "us", better: "lower", moves: movesSetup},
	{name: "obs.emit_ns", unit: "ns", better: "lower", moves: movesNothing},
	{name: "obs.nop_emit_ns", unit: "ns", better: "lower", moves: movesNothing},
	{name: "obs.write_jsonl_us_per_kevent", unit: "us", better: "lower", moves: movesNothing},

	// Host and memory.
	{name: "host.calib_ms_start", unit: "ms", better: "lower", moves: movesHost},
	{name: "host.calib_ms_end", unit: "ms", better: "lower", moves: movesHost},
	{name: "mem.gc_count", unit: "count", better: "lower", moves: movesMemory},
	{name: "mem.heap_peak_mb", unit: "MB", better: "lower", moves: movesMemory},
	{name: "mem.peak_rss_mb", unit: "MB", better: "lower", moves: movesMemory},
}

func metricByName(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].name == name {
			return &defs[i]
		}
	}
	return nil
}
