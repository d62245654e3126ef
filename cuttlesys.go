// Package cuttlesys is a from-scratch Go implementation of CuttleSys
// (Kulkarni et al., MICRO 2020): a data-driven resource manager for
// interactive services on reconfigurable multicores. Each 100 ms
// decision quantum the runtime profiles every co-scheduled application
// for two 1 ms samples, reconstructs its full performance/power
// surface across all 108 core-and-cache configurations with
// collaborative filtering (PQ-reconstruction with SGD), and explores
// the joint configuration space with parallel Dynamically Dimensioned
// Search — meeting the latency-critical service's QoS and maximising
// batch throughput under a power budget.
//
// The package re-exports the library's public surface: the machine
// simulator that stands in for the paper's zsim+McPAT testbed, the
// CuttleSys runtime, every baseline from the paper's evaluation, the
// workload catalog, and the experiment harness. The reproduction of
// each table and figure lives in the experiments package; the
// cuttlesys command (cmd/cuttlesys) runs one per `cuttlesys paper
// <row>`.
//
// Quick start:
//
//	lc, _ := cuttlesys.AppByName("xapian")
//	_, pool := cuttlesys.SplitTrainTest(1, 16)
//	m := cuttlesys.NewMachine(cuttlesys.MachineSpec{
//		Seed: 1, LC: lc, Batch: cuttlesys.Mix(1, pool, 16), Reconfigurable: true,
//	})
//	rt := cuttlesys.NewRuntime(m, cuttlesys.RuntimeParams{Seed: 1})
//	res, err := cuttlesys.Run(m, rt, 10, cuttlesys.ConstantLoad(0.8), cuttlesys.ConstantBudget(0.7))
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(res)
package cuttlesys

import (
	"cuttlesys/internal/baseline"
	"cuttlesys/internal/core"
	"cuttlesys/internal/ctrlplane"
	"cuttlesys/internal/fault"
	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/modelplane"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/scenario"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// Machine simulates a CMP of reconfigurable (or fixed) cores sharing a
// 32-way LLC, DRAM bandwidth and a power budget.
type Machine = sim.Machine

// MachineSpec configures a Machine.
type MachineSpec = sim.Spec

// Allocation is a per-timeslice machine assignment.
type Allocation = sim.Allocation

// PhaseResult reports one phase of machine execution.
type PhaseResult = sim.PhaseResult

// Profile describes one application's first-order behaviour.
type Profile = workload.Profile

// AppClass distinguishes batch jobs from latency-critical services.
type AppClass = workload.Class

// Application classes for Profile.Class.
const (
	BatchApp        = workload.Batch
	LatencyCritical = workload.LatencyCritical
)

// Scheduler is the per-timeslice resource-manager interface every
// policy implements.
type Scheduler = harness.Scheduler

// Result aggregates an experiment run.
type Result = harness.Result

// LoadPattern yields the LC service's offered load over time.
type LoadPattern = harness.LoadPattern

// BudgetPattern yields the power budget over time.
type BudgetPattern = harness.BudgetPattern

// Runtime is the CuttleSys scheduler (§IV-§VI).
type Runtime = core.Runtime

// RuntimeParams tunes the CuttleSys runtime; zero values select the
// paper's settings.
type RuntimeParams = core.Params

// GatingPolicy selects the core-gating baseline's shutdown order.
type GatingPolicy = baseline.GatingPolicy

// Core-gating policies (§VII-B).
const (
	DescendingPower      = baseline.DescendingPower
	AscendingPower       = baseline.AscendingPower
	AscendingBIPSPerWatt = baseline.AscendingBIPSPerWatt
	AscendingBIPS        = baseline.AscendingBIPS
)

// SliceDur is the decision quantum: 100 ms.
const SliceDur = harness.SliceDur

// NewMachine constructs a machine simulator from spec.
func NewMachine(spec MachineSpec) *Machine { return sim.New(spec) }

// NewRuntime constructs the CuttleSys runtime for a machine.
func NewRuntime(m *Machine, p RuntimeParams) *Runtime { return core.New(m, p) }

// NewNoGating constructs the no-gating reference policy.
func NewNoGating(m *Machine) Scheduler { return baseline.NewNoGating(m) }

// NewCoreGating constructs the core-level gating baseline.
func NewCoreGating(m *Machine, policy GatingPolicy, wayPartition bool, seed uint64) Scheduler {
	return baseline.NewCoreGating(m, policy, wayPartition, seed)
}

// NewAsymmetric constructs the asymmetric-multicore baseline; oracle
// selects the per-slice optimal big/little split.
func NewAsymmetric(m *Machine, oracle bool) Scheduler { return baseline.NewAsymmetric(m, oracle) }

// NewFlicker constructs the Flicker baseline; modeB pins the LC
// service to the widest configuration (§VIII-E).
func NewFlicker(m *Machine, modeB bool, seed uint64) Scheduler {
	return baseline.NewFlicker(m, modeB, seed)
}

// Run executes an experiment: slices timeslices of scheduler s on
// machine m under the given load and power-budget patterns. It returns
// an error for invalid setups (non-positive slice count, missing load
// patterns, bad profile phases) instead of panicking.
func Run(m *Machine, s Scheduler, slices int, load LoadPattern, budget BudgetPattern) (*Result, error) {
	return harness.Run(m, s, slices, load, budget)
}

// FaultInjector perturbs a run with hardware, telemetry, and
// environmental faults; construct one with NewFaultSchedule.
type FaultInjector = harness.FaultInjector

// FaultEvent is one timed fault in a schedule.
type FaultEvent = fault.Event

// FaultKind names a failure mode.
type FaultKind = fault.Kind

// Failure modes for FaultEvent.Kind.
const (
	CoreFailStop     = fault.CoreFailStop
	CoreFailSlow     = fault.CoreFailSlow
	ProfileCorrupt   = fault.ProfileCorrupt
	TelemetryGarbage = fault.TelemetryGarbage
	FlashCrowd       = fault.FlashCrowd
	BudgetDrop       = fault.BudgetDrop
)

// ComposeFaults layers several fault injectors into one — a machine's
// standing chaos schedule plus a drill's incident. Disruptions add,
// load/budget factors multiply, telemetry corruption chains in
// argument order; nil members are skipped and a single live member is
// returned unchanged. See fault.Compose.
func ComposeFaults(parts ...FaultInjector) FaultInjector { return fault.Compose(parts...) }

// NewFaultSchedule builds a deterministic fault schedule; the same
// seed and events always reproduce the same perturbations.
func NewFaultSchedule(seed uint64, events ...FaultEvent) (*fault.Schedule, error) {
	return fault.NewSchedule(seed, events...)
}

// RunFaulted is Run under a fault injector: a nil injector (or an
// empty schedule) reproduces Run exactly.
func RunFaulted(m *Machine, s Scheduler, slices int, load LoadPattern, budget BudgetPattern, inj FaultInjector) (*Result, error) {
	return harness.RunFaulted(m, s, slices, load, budget, inj)
}

// RunMulti executes a multi-service experiment (MachineSpec.ExtraLCs,
// the paper's §VII-A generalisation) with one load pattern per
// service, primary first. A scheduler whose allocations do not cover
// every service gets an error, not a panic.
func RunMulti(m *Machine, s Scheduler, slices int, loads []LoadPattern, budget BudgetPattern) (*Result, error) {
	return harness.RunMulti(m, s, slices, loads, budget)
}

// ConstantLoad offers a fixed fraction of the service's max QPS.
func ConstantLoad(frac float64) LoadPattern { return harness.ConstantLoad(frac) }

// DiurnalLoad swings smoothly between lo and hi with the given period.
func DiurnalLoad(lo, hi, period float64) LoadPattern { return harness.DiurnalLoad(lo, hi, period) }

// StepLoad jumps from lo to hi during [from, to).
func StepLoad(lo, hi, from, to float64) LoadPattern { return harness.StepLoad(lo, hi, from, to) }

// ConstantBudget caps power at a fixed fraction of the machine's
// reference maximum.
func ConstantBudget(frac float64) BudgetPattern { return harness.ConstantBudget(frac) }

// StepBudget uses lo during [from, to) and hi elsewhere.
func StepBudget(hi, lo, from, to float64) BudgetPattern { return harness.StepBudget(hi, lo, from, to) }

// TailBench returns the five latency-critical service profiles
// (Xapian, Masstree, ImgDNN, Moses, Silo).
func TailBench() []*Profile { return workload.TailBench() }

// SPEC returns the 28 SPEC CPU2006-like batch profiles.
func SPEC() []*Profile { return workload.SPEC() }

// AppByName looks up a catalog application.
func AppByName(name string) (*Profile, error) { return workload.ByName(name) }

// SplitTrainTest partitions the SPEC catalog into offline-training and
// testing applications (§VII-A).
func SplitTrainTest(seed uint64, nTrain int) (train, test []*Profile) {
	return workload.SplitTrainTest(seed, nTrain)
}

// Mix builds a multiprogrammed batch mix of n jobs drawn from pool.
func Mix(seed uint64, pool []*Profile, n int) []*Profile { return workload.Mix(seed, pool, n) }

// Fleet is a cluster of CuttleSys machines behind a traffic router
// under one shared power budget (DESIGN.md §8).
type Fleet = fleet.Fleet

// FleetConfig tunes a Fleet (router, budget arbiter, worker count).
type FleetConfig = fleet.Config

// FleetNode describes one machine joining a Fleet.
type FleetNode = fleet.NodeSpec

// FleetResult aggregates a fleet run.
type FleetResult = fleet.Result

// Router splits the fleet's offered QPS across machines each slice.
type Router = fleet.Router

// Arbiter partitions the cluster power budget across machines.
type Arbiter = fleet.Arbiter

// Routing policies.
type (
	// UniformRouter splits traffic equally.
	UniformRouter = fleet.Uniform
	// LeastLoadedRouter discounts capacity by last-slice tail latency.
	LeastLoadedRouter = fleet.LeastLoaded
	// QoSAwareRouter drains violating or degraded machines (AIMD).
	QoSAwareRouter = fleet.QoSAware
)

// Budget arbiters.
type (
	// ProportionalArbiter splits by reference maximum power.
	ProportionalArbiter = fleet.Proportional
	// HeadroomArbiter re-partitions the cap from last-slice demand.
	HeadroomArbiter = fleet.Headroom
)

// NewFleet assembles a cluster of machines; see fleet.New.
func NewFleet(cfg FleetConfig, nodes ...FleetNode) (*Fleet, error) {
	return fleet.New(cfg, nodes...)
}

// FleetSeeds derives n machine seeds from one fleet seed.
func FleetSeeds(seed uint64, n int) []uint64 { return fleet.Seeds(seed, n) }

// ControlPlane wraps a Fleet with dynamic membership, a debounced
// health state machine (quarantine, drain, probation) and a closed-loop
// autoscaler (DESIGN.md §12).
type ControlPlane = ctrlplane.Manager

// ControlPlaneConfig tunes a ControlPlane: the embedded fleet config
// plus health-check debounce and autoscaler policy.
type ControlPlaneConfig = ctrlplane.Config

// ControlPlaneResult aggregates a managed run: the inner fleet result
// plus per-slice states, the membership log and every transition.
type ControlPlaneResult = ctrlplane.Result

// NewControlPlane assembles a managed fleet; see ctrlplane.New.
func NewControlPlane(cfg ControlPlaneConfig, nodes ...FleetNode) (*ControlPlane, error) {
	return ctrlplane.New(cfg, nodes...)
}

// ModelPlane is the fleet-wide model-sharing plane: machines running
// the same service mix publish their trained SGD factors to a
// versioned, deterministically-folded aggregation store, and new or
// recovered machines warm-start from the fleet aggregate instead of
// cold initialisation (DESIGN.md §14). Hook one into
// FleetConfig.Share and ControlPlaneConfig.WarmStart.
type ModelPlane = modelplane.Plane

// ModelPlaneParams tunes the plane's accuracy-vs-staleness knobs:
// sync period, aggregate decay, fine-tune sweeps, confidence credit.
type ModelPlaneParams = modelplane.Params

// NewModelPlane builds an empty model-sharing plane; see
// modelplane.New. A nil collector disables instrumentation.
func NewModelPlane(p ModelPlaneParams, c Collector) *ModelPlane { return modelplane.New(p, c) }

// Collector receives trace events, metric updates and profiling
// samples from an instrumented run (DESIGN.md §10). Attach one via
// FleetConfig.Collector, ScenarioOptions.Collector or RunTraced; a nil
// Collector disables instrumentation at zero cost.
type Collector = obs.Collector

// TraceRecorder is the enabled Collector: it buffers trace events,
// aggregates metrics and wall/allocation profiles, and exports them
// deterministically (JSONL, Chrome trace_event, Prometheus text).
type TraceRecorder = obs.Recorder

// NewTraceRecorder builds an empty recorder.
func NewTraceRecorder() *TraceRecorder { return obs.NewRecorder() }

// TraceEvent is one span or instant in a recorded trace.
type TraceEvent = obs.Event

// TraceSummary condenses a trace: per-phase simulated-time breakdown,
// top spans, and the QoS-violation timeline.
type TraceSummary = obs.Summary

// SummarizeTrace builds a TraceSummary; top caps the span list
// (non-positive selects the default).
func SummarizeTrace(events []TraceEvent, top int) *TraceSummary { return obs.Summarize(events, top) }

// RunTraced is RunMulti under a fault injector with a Collector
// attached: the run's profile→decide→hold structure, metrics and fault
// transitions land in c. A nil injector skips fault perturbation; a nil
// collector reproduces RunMulti exactly.
func RunTraced(m *Machine, s Scheduler, slices int, loads []LoadPattern, budget BudgetPattern, inj FaultInjector, c Collector) (*Result, error) {
	return harness.RunTraced(m, s, slices, loads, budget, inj, c)
}

// Scenario is a parsed declarative scenario spec: one spec file plus
// one seed fully determines a fleet run (internal/scenario,
// DESIGN.md §13).
type Scenario = scenario.Spec

// ScenarioOptions completes a spec into a concrete run; set fields
// override the spec's own geometry.
type ScenarioOptions = scenario.Options

// CompiledScenario is a spec resolved against its options: lowered
// load/budget patterns plus fleet and control-plane builders.
type CompiledScenario = scenario.Compiled

// ParseScenario reads one spec from its textual form, applying every
// documented default and validating the result.
func ParseScenario(src []byte) (*Scenario, error) { return scenario.Parse(src) }

// FormatScenario renders the canonical textual form of a spec;
// ParseScenario(FormatScenario(s)) reproduces s exactly.
func FormatScenario(s *Scenario) []byte { return scenario.Format(s) }

// ScenarioHash is the spec's identity: FNV-1a 64 over its canonical
// form, the value that keys every stochastic arrival stream.
func ScenarioHash(s *Scenario) uint64 { return scenario.Hash(s) }

// CompileScenario lowers a validated spec against its run options.
func CompileScenario(s *Scenario, opt ScenarioOptions) (*CompiledScenario, error) {
	return scenario.Compile(s, opt)
}
