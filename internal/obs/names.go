package obs

// The span/event taxonomy and metric naming conventions shared by the
// instrumented subsystems (DESIGN.md §10). Names are dot-separated
// "<subsystem>.<phase|event>"; metric names follow the Prometheus
// convention "cuttlesys_<subject>_<unit-or-total>". Keeping them in
// one place is what lets `cuttlesys trace` summarise any run and the docs
// promise a stable vocabulary.

// Span names: the slice phase structure of §IV-B (Fig. 3) plus the
// fleet's cluster quantum.
const (
	// SpanSlice covers one whole decision quantum on one machine.
	SpanSlice = "slice"
	// SpanProfile covers one profiling window (attrs: window, attempt).
	SpanProfile = "slice.profile"
	// SpanDecide covers the modeled scheduling compute charged by the
	// scheduler — its Dur is the slice's OverheadSec.
	SpanDecide = "slice.decide"
	// SpanHold covers the hold phase: the previous allocation running
	// while the scheduler computes.
	SpanHold = "slice.hold"
	// SpanSteady covers the steady-state remainder of the slice.
	SpanSteady = "slice.steady"
	// SpanFleetSlice covers one cluster decision quantum
	// (Machine == ClusterMachine; attrs: router, arbiter).
	SpanFleetSlice = "fleet.slice"
)

// Instant event names.
const (
	// EventQoSViolation marks a slice whose measured tail latency
	// exceeded the QoS target (attrs: p99Ms, qosMs).
	EventQoSViolation = "qos.violation"
	// EventFaultInject / EventFaultRecover mark a fault schedule
	// window opening and closing (attr: kind).
	EventFaultInject  = "fault.inject"
	EventFaultRecover = "fault.recover"
	// EventDegraded marks the divergence detector latching (or
	// releasing) degraded mode (attr: state = enter|exit).
	EventDegraded = "core.degraded"
	// EventFallback marks a decision served by the safe-fallback
	// allocation instead of the reconstructed surfaces.
	EventFallback = "core.fallback"
	// EventScan records one service's QoS-scan outcome (attrs:
	// service, cfg, ways).
	EventScan = "core.scan"
	// EventSearch records the design-space exploration (attrs: algo,
	// evals, dims — the dimension scores the evaluator accumulated).
	EventSearch = "core.search"
	// EventGate marks budget enforcement gating batch jobs (attr:
	// jobs).
	EventGate = "core.gate"
	// EventRoute / EventArbitrate mark the fleet's serial routing and
	// budget-arbitration steps (attrs: router / arbiter).
	EventRoute     = "fleet.route"
	EventArbitrate = "fleet.arbitrate"
	// EventHealth marks a control-plane health state transition for one
	// machine (attrs: from, to, reason).
	EventHealth = "ctrl.health"
	// EventJoin / EventEvict mark control-plane membership changes
	// (attrs: machine, reason).
	EventJoin  = "ctrl.join"
	EventEvict = "ctrl.evict"
	// EventScale marks an autoscaler action (attrs: dir = up|down,
	// machine, util).
	EventScale = "ctrl.scale"
	// EventSharePublish marks a machine publishing its trained factors
	// to the model-sharing plane (attrs: machine, key, matrix).
	EventSharePublish = "share.publish"
	// EventShareAggregate marks the plane folding pending publications
	// into a new aggregate version (attrs: key, version, sources).
	EventShareAggregate = "share.aggregate"
	// EventShareWarmStart marks a machine importing fleet-aggregated
	// factors instead of cold-initialising (attrs: machine, key,
	// version).
	EventShareWarmStart = "share.warmstart"
)

// Metric names. Per-machine series additionally carry MachineLabel
// when emitted through ForMachine.
const (
	// Harness slice loop.
	MetricSlices         = "cuttlesys_slices_total"
	MetricQoSViolations  = "cuttlesys_qos_violations_total"
	MetricOverheadSec    = "cuttlesys_sched_overhead_seconds_total"
	MetricInstrB         = "cuttlesys_batch_instr_billions_total"
	MetricPowerW         = "cuttlesys_slice_power_watts"
	MetricP99Hist        = "cuttlesys_slice_p99_ms"
	MetricProfileRetries = "cuttlesys_profile_retries_total"
	MetricDegradedSlices = "cuttlesys_degraded_slices_total"
	MetricFaultSlices    = "cuttlesys_fault_active_slices_total"

	// Fault schedule (label: kind).
	MetricFaultInjections = "cuttlesys_fault_injections_total"

	// Core runtime decision phases (labels: matrix / algo / service).
	MetricSGDIters    = "cuttlesys_core_sgd_iterations_total"
	MetricSGDObserved = "cuttlesys_core_sgd_observed_cells"
	MetricSearchEvals = "cuttlesys_core_search_evals_total"
	// Search fast-path cost accounting: dimension scores the incremental
	// evaluator actually accumulated, and the scores it skipped relative
	// to full evaluation (evals × dims − scored).
	MetricSearchDims      = "cuttlesys_core_search_dims_scored_total"
	MetricSearchDimsSaved = "cuttlesys_core_search_dims_saved_total"
	MetricFallbacks       = "cuttlesys_core_fallback_slices_total"
	MetricGatedJobs       = "cuttlesys_core_gated_jobs"
	MetricLCCores         = "cuttlesys_core_lc_cores"
	MetricLCWays          = "cuttlesys_core_lc_ways"
	MetricBatchWays       = "cuttlesys_core_batch_ways"

	// Fleet serial sections (cluster scope: no machine label).
	MetricFleetSlices         = "cuttlesys_fleet_slices_total"
	MetricFleetQPS            = "cuttlesys_fleet_offered_qps"
	MetricFleetBudgetW        = "cuttlesys_fleet_budget_watts"
	MetricFleetQoSMet         = "cuttlesys_fleet_qos_met_frac"
	MetricFleetInstrB         = "cuttlesys_fleet_instr_billions_total"
	MetricFleetOverheadSerial = "cuttlesys_fleet_overhead_serial_seconds_total"
	MetricFleetOverheadCrit   = "cuttlesys_fleet_overhead_crit_seconds_total"

	// Control plane (cluster scope; transition/action counters carry a
	// state or direction label).
	MetricCtrlTransitions = "cuttlesys_ctrl_transitions_total"
	MetricCtrlEvictions   = "cuttlesys_ctrl_evictions_total"
	MetricCtrlJoins       = "cuttlesys_ctrl_joins_total"
	MetricCtrlScaleOps    = "cuttlesys_ctrl_scale_ops_total"
	MetricCtrlServing     = "cuttlesys_ctrl_serving_machines"
	MetricCtrlUnroutedQPS = "cuttlesys_ctrl_unrouted_qps"

	// Model-sharing plane (cluster scope; per-key series carry a key
	// label, warm-start counters a machine label via ForMachine).
	MetricSharePublishes  = "cuttlesys_share_publishes_total"
	MetricShareAggregates = "cuttlesys_share_aggregates_total"
	MetricShareWarmStarts = "cuttlesys_share_warmstarts_total"
	MetricShareVersion    = "cuttlesys_share_version"
	MetricShareStaleness  = "cuttlesys_share_staleness_slices"

	// Hot-path fast-plane counters (per-machine scope): table builds
	// and lookups from the machine's perf.SurfaceTable.
	MetricHotpathTableBuilds = "cuttlesys_hotpath_table_builds_total"
	MetricHotpathLookups     = "cuttlesys_hotpath_lookups_total"
)
