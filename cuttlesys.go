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
// CuttleSys runtime, the workload catalog, the experiment harness, and
// the scenario specs that name every baseline from the paper's
// evaluation (a spec's policy scheduler= key). The reproduction of
// each table and figure lives in the experiments package; the
// cuttlesys command (cmd/cuttlesys) runs one per `cuttlesys paper
// <row>`.
//
// Quick start — one policy on one machine is a one-machine scenario
// spec, the paper's §VIII evaluation unit:
//
//	spec, err := cuttlesys.ParseScenario([]byte(
//		"scenario quickstart\nservice xapian\nmachines 1\nslices 10\nload 0.8\ncap 0.7\nmix seed=1\n"))
//	if err != nil {
//		log.Fatal(err)
//	}
//	comp, err := cuttlesys.CompileScenario(spec, cuttlesys.ScenarioOptions{Seed: 1})
//	if err != nil {
//		log.Fatal(err)
//	}
//	res, _, err := comp.RunMachine(nil)
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(res)
package cuttlesys

import (
	"cuttlesys/internal/core"
	"cuttlesys/internal/ctrlplane"
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

// SliceDur is the decision quantum: 100 ms.
const SliceDur = harness.SliceDur

// NewMachine constructs a machine simulator from spec.
func NewMachine(spec MachineSpec) *Machine { return sim.New(spec) }

// NewRuntime constructs the CuttleSys runtime for a machine.
func NewRuntime(m *Machine, p RuntimeParams) *Runtime { return core.New(m, p) }

// Run executes slices timeslices of scheduler s on machine m under one
// load pattern per latency-critical service (primary first) and a
// power-budget pattern. It is for what a scenario spec cannot express —
// a custom Profile, or one load pattern per service; every other run is
// a spec (CompiledScenario.RunMachine). Invalid setups return an error.
func Run(m *Machine, s Scheduler, slices int, loads []LoadPattern, budget BudgetPattern) (*Result, error) {
	return harness.Run(m, s, slices, loads, budget, nil, nil)
}

// ConstantLoad offers a fixed fraction of the service's max QPS.
func ConstantLoad(frac float64) LoadPattern { return harness.ConstantLoad(frac) }

// StepLoad jumps from lo to hi during [from, to).
func StepLoad(lo, hi, from, to float64) LoadPattern { return harness.StepLoad(lo, hi, from, to) }

// ConstantBudget caps power at a fixed fraction of the machine's
// reference maximum.
func ConstantBudget(frac float64) BudgetPattern { return harness.ConstantBudget(frac) }

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

// ControlPlaneResult aggregates a managed run: the inner fleet result
// plus per-slice states, the membership log and every transition.
type ControlPlaneResult = ctrlplane.Result

// ModelPlane is the fleet-wide model-sharing plane: machines running
// the same service mix publish their trained SGD factors to a
// versioned, deterministically-folded aggregation store, and new or
// recovered machines warm-start from the fleet aggregate instead of
// cold initialisation (DESIGN.md §14). Hook one into
// FleetConfig.Share; a spec's share clause builds its own.
type ModelPlane = modelplane.Plane

// ModelPlaneParams tunes the plane's accuracy-vs-staleness knobs:
// sync period, aggregate decay, fine-tune sweeps, confidence credit.
type ModelPlaneParams = modelplane.Params

// NewModelPlane builds an empty model-sharing plane; see
// modelplane.New. A nil collector disables instrumentation.
func NewModelPlane(p ModelPlaneParams, c Collector) *ModelPlane { return modelplane.New(p, c) }

// Collector receives trace events, metric updates and profiling
// samples from an instrumented run (DESIGN.md §10). Attach one via
// FleetConfig.Collector or ScenarioOptions.Collector; a nil Collector
// disables instrumentation at zero cost.
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
