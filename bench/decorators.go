package main

import (
	"cuttlesys/internal/core"
	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/modelplane"
	"cuttlesys/internal/sim"
)

// The traced run takes all its timing from outside the layers: each
// decorator below implements an interface a layer already accepts,
// opens a span, and forwards the call unchanged. Nothing here may
// alter an argument or a result — the traced run's sim_digest is
// checked against the untraced run's to prove it.

// tracedTimer times the three scheduler entry points for one machine.
type tracedTimer struct {
	tr      *tracer
	machine int
	decide  string
	profile string
	feed    string
}

func newTracedTimer(tr *tracer, layer string, machine int) tracedTimer {
	return tracedTimer{
		tr: tr, machine: machine,
		decide: layer + ".decide", profile: layer + ".profile", feed: layer + ".feedback",
	}
}

// tracedRuntime decorates the CuttleSys controller. It embeds
// *core.Runtime so the optional interfaces the driver, the fleet and
// the model plane discover by type assertion — ProfileValidator,
// DegradedReporter, FixedOverhead, Observable, modelplane.Sharer —
// stay visible through the wrapper.
type tracedRuntime struct {
	*core.Runtime
	tracedTimer
}

var (
	_ harness.MultiScheduler   = (*tracedRuntime)(nil)
	_ harness.ProfileValidator = (*tracedRuntime)(nil)
	_ harness.DegradedReporter = (*tracedRuntime)(nil)
	_ harness.FixedOverhead    = (*tracedRuntime)(nil)
	_ harness.Observable       = (*tracedRuntime)(nil)
	_ modelplane.Sharer        = (*tracedRuntime)(nil)
)

func (t *tracedRuntime) ProfilePhasesMulti(qps []float64, budgetW float64) []harness.Phase {
	id := t.tr.begin(t.profile, t.machine)
	defer t.tr.end(id)
	return t.Runtime.ProfilePhasesMulti(qps, budgetW)
}

func (t *tracedRuntime) DecideMulti(profile []sim.PhaseResult, qps []float64, budgetW float64) (sim.Allocation, float64) {
	id := t.tr.begin(t.decide, t.machine)
	defer t.tr.end(id)
	return t.Runtime.DecideMulti(profile, qps, budgetW)
}

func (t *tracedRuntime) EndSliceMulti(steady sim.PhaseResult, qps []float64) {
	id := t.tr.begin(t.feed, t.machine)
	defer t.tr.end(id)
	t.Runtime.EndSliceMulti(steady, qps)
}

// tracedBaseline decorates a non-learning policy lifted by
// harness.Single. The baselines implement none of the optional
// scheduler extensions, so forwarding the three entry points is the
// whole contract.
type tracedBaseline struct {
	harness.MultiScheduler
	tracedTimer
}

func (t *tracedBaseline) ProfilePhasesMulti(qps []float64, budgetW float64) []harness.Phase {
	id := t.tr.begin(t.profile, t.machine)
	defer t.tr.end(id)
	return t.MultiScheduler.ProfilePhasesMulti(qps, budgetW)
}

func (t *tracedBaseline) DecideMulti(profile []sim.PhaseResult, qps []float64, budgetW float64) (sim.Allocation, float64) {
	id := t.tr.begin(t.decide, t.machine)
	defer t.tr.end(id)
	return t.MultiScheduler.DecideMulti(profile, qps, budgetW)
}

func (t *tracedBaseline) EndSliceMulti(steady sim.PhaseResult, qps []float64) {
	id := t.tr.begin(t.feed, t.machine)
	defer t.tr.end(id)
	t.MultiScheduler.EndSliceMulti(steady, qps)
}

type tracedRouter struct {
	fleet.Router
	tr *tracer
}

func (t tracedRouter) Route(offered float64, tele []fleet.Telemetry) []float64 {
	id := t.tr.begin(spanRoute, clusterMachine)
	defer t.tr.end(id)
	return t.Router.Route(offered, tele)
}

type tracedArbiter struct {
	fleet.Arbiter
	tr *tracer
}

func (t tracedArbiter) Split(budgetW float64, tele []fleet.Telemetry) []float64 {
	id := t.tr.begin(spanArbitrate, clusterMachine)
	defer t.tr.end(id)
	return t.Arbiter.Split(budgetW, tele)
}

// tracedPlane decorates the model-sharing plane in both its roles:
// the fleet's post-fold hook and the control plane's warm-starter.
type tracedPlane struct {
	pl *modelplane.Plane
	tr *tracer
}

func (t tracedPlane) AfterSlice(slice int, now float64, members []fleet.ShareMember) {
	id := t.tr.begin(spanAfterSlice, clusterMachine)
	defer t.tr.end(id)
	t.pl.AfterSlice(slice, now, members)
}

func (t tracedPlane) WarmStartMachine(machine int, sched harness.MultiScheduler) bool {
	id := t.tr.begin(spanWarmStart, machine)
	defer t.tr.end(id)
	return t.pl.WarmStartMachine(machine, sched)
}

// tracedProvision decorates a ScaleConfig.Provision factory.
func tracedProvision(tr *tracer, provision func(id int, seed uint64) (fleet.NodeSpec, error)) func(int, uint64) (fleet.NodeSpec, error) {
	return func(id int, seed uint64) (fleet.NodeSpec, error) {
		sp := tr.begin(spanProvision, id)
		defer tr.end(sp)
		return provision(id, seed)
	}
}
