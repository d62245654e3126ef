package scenario

import (
	"cmp"
	"fmt"

	"cuttlesys/internal/baseline"
	"cuttlesys/internal/core"
	"cuttlesys/internal/ctrlplane"
	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/modelplane"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// Policy resolves the spec's router and arbiter through the fleet
// registry. Callers sweeping policies pass their own pair to the
// builders instead.
func (c *Compiled) Policy() (fleet.Router, fleet.Arbiter, error) {
	r, err := fleet.RouterByName(c.Spec.Policy.Router)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", c.Spec.Name, err)
	}
	a, err := fleet.ArbiterByName(c.Spec.Policy.Arbiter)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", c.Spec.Name, err)
	}
	return r, a, nil
}

// SchedulerDef is one row of the scheduler registry: a policy's name,
// whether it runs on reconfigurable cores (and so pays the AnyCore
// penalties), and how it schedules a machine. The scheduler seed
// arrives as p.Seed; only CuttleSys reads the rest of p.
type SchedulerDef struct {
	Name           string
	Reconfigurable bool
	New            func(m *sim.Machine, p core.Params) harness.Scheduler
}

// Schedulers is the one scheduler registry: the names the policy
// clause's scheduler key takes, CuttleSys, its default, first.
var Schedulers = []SchedulerDef{
	{"cuttlesys", true, func(m *sim.Machine, p core.Params) harness.Scheduler { return core.New(m, p) }},
	// CuttleSys with its resilience guards off: the trusting control of
	// the resilience report.
	{"cuttlesys-unhardened", true, func(m *sim.Machine, p core.Params) harness.Scheduler {
		p.DisableResilience = true
		return core.New(m, p)
	}},
	{"no-gating", false, func(m *sim.Machine, _ core.Params) harness.Scheduler { return baseline.NewNoGating(m) }},
	{"core-gating", false, func(m *sim.Machine, p core.Params) harness.Scheduler {
		return baseline.NewCoreGating(m, baseline.DescendingPower, false, p.Seed)
	}},
	{"core-gating+wp", false, func(m *sim.Machine, p core.Params) harness.Scheduler {
		return baseline.NewCoreGating(m, baseline.DescendingPower, true, p.Seed)
	}},
	{"asymm-oracle", false, func(m *sim.Machine, _ core.Params) harness.Scheduler { return baseline.NewAsymmetric(m, true) }},
	{"asymm-50-50", false, func(m *sim.Machine, _ core.Params) harness.Scheduler { return baseline.NewAsymmetric(m, false) }},
	{"flicker-a", true, func(m *sim.Machine, p core.Params) harness.Scheduler { return baseline.NewFlicker(m, false, p.Seed) }},
	{"flicker-b", true, func(m *sim.Machine, p core.Params) harness.Scheduler { return baseline.NewFlicker(m, true, p.Seed) }},
	// The maxBIPS per-core DVFS extension (§II-A1), outside the paper's
	// Fig. 5c comparison set.
	{"dvfs-maxbips", false, func(m *sim.Machine, p core.Params) harness.Scheduler { return baseline.NewDVFS(m, p.Seed) }},
}

// SchedulerByName returns the registry row named name; the error lists
// every name.
func SchedulerByName(name string) (SchedulerDef, error) {
	names := make([]string, len(Schedulers))
	for i, d := range Schedulers {
		if d.Name == name {
			return d, nil
		}
		names[i] = d.Name
	}
	return SchedulerDef{}, fmt.Errorf("unknown scheduler %q: one of %v", name, names)
}

// node builds one machine and its scheduler, the one builder of a
// run's machines: the batch mix and the simulated multicore derive from
// mix, the spec's scheduler from seed. tweak, when set, adjusts the
// CuttleSys parameters.
func (c *Compiled) node(mix, seed uint64, tweak func(*core.Params)) fleet.NodeSpec {
	m := sim.New(sim.Spec{
		Seed:           mix,
		LC:             c.lc,
		Batch:          workload.Mix(mix, c.pool, c.Spec.Mix.Jobs),
		Reconfigurable: c.sched.Reconfigurable,
	})
	p := core.Params{Seed: seed, ShareFactors: c.Spec.Share != nil}
	if tweak != nil {
		tweak(&p)
	}
	return fleet.NodeSpec{Machine: m, Scheduler: c.sched.New(m, p)}
}

// RunMachine runs a one-machine spec: the machine nodes builds, its
// fault clauses attached, stepped by harness.Run over the compiled
// patterns on the machine's own clock and traced into
// Options.Collector when one was set. It returns the scheduler too,
// for callers that read its state. tweak is node's. It refuses a spec
// with more than one machine, a control clause or a share clause: Run
// drives those as a fleet.
func (c *Compiled) RunMachine(tweak func(*core.Params)) (*harness.Result, harness.Scheduler, error) {
	if c.Machines != 1 || c.Managed || c.Spec.Share != nil {
		return nil, nil, fmt.Errorf("scenario %s: RunMachine runs one machine with no control or share clause", c.Spec.Name)
	}
	nds, err := c.nodes(tweak)
	if err != nil {
		return nil, nil, err
	}
	res, err := harness.Run(nds[0].Machine, nds[0].Scheduler, c.Slices,
		[]harness.LoadPattern{c.LoadPat}, c.BudgetPat, nds[0].Injector, c.collector)
	return res, nds[0].Scheduler, err
}

// sharePlane builds the spec's model-sharing plane, nil when the spec
// has no share clause. Each Build* call gets its own plane: the store
// is per-run state, like the fleet itself.
func (c *Compiled) sharePlane() *modelplane.Plane {
	if c.Spec.Share == nil {
		return nil
	}
	return modelplane.New(planeParams(c.Spec.Share), nil)
}

// planeParams is the model-sharing plane's configuration the share
// clause sets.
func planeParams(sh *ShareSpec) modelplane.Params {
	return modelplane.Params{
		SyncPeriod:     sh.SyncPeriod,
		Decay:          sh.Decay.Value(),
		FineTuneIters:  sh.FineTune,
		WarmConfidence: sh.Confidence,
	}
}

// nodes builds the initial fleet, fault injectors attached per the
// spec's fault clauses and seeded from each machine's scheduler seed.
// Machine i takes its fleet.Seeds draw for its mix and scheduler,
// unless the mix clause pins the one machine's mix, when the run seed
// seeds the scheduler. tweak is node's.
func (c *Compiled) nodes(tweak func(*core.Params)) ([]fleet.NodeSpec, error) {
	seeds := fleet.Seeds(c.Seed, c.Machines)
	specs := make([]fleet.NodeSpec, c.Machines)
	for i := range specs {
		mix, seed := seeds[i], seeds[i]
		if c.Spec.Mix.Seed != 0 {
			mix, seed = c.Spec.Mix.Seed, c.Seed
		}
		specs[i] = c.node(mix, seed, tweak)
		inj, err := c.Injector(i, seed)
		if err != nil {
			return nil, err
		}
		specs[i].Injector = inj
	}
	return specs, nil
}

// BuildFleet assembles the unmanaged fleet the spec describes. A nil
// router or arbiter falls back to the spec's policy clause; passing
// both lets sweep drivers reuse one compiled spec across policies.
func (c *Compiled) BuildFleet(router fleet.Router, arbiter fleet.Arbiter) (*fleet.Fleet, error) {
	if err := c.fillPolicy(&router, &arbiter); err != nil {
		return nil, err
	}
	specs, err := c.nodes(nil)
	if err != nil {
		return nil, err
	}
	cfg := fleet.Config{Router: router, Arbiter: arbiter, Collector: c.collector}
	if pl := c.sharePlane(); pl != nil {
		cfg.Share = pl
	}
	return fleet.New(cfg, specs...)
}

// BuildControlPlane assembles the managed fleet: the same nodes under
// the control clause's health and autoscaling config, with the
// provision factory minting replacement machines from the salted
// provisioning stream.
func (c *Compiled) BuildControlPlane(router fleet.Router, arbiter fleet.Arbiter) (*ctrlplane.Manager, error) {
	if err := c.fillPolicy(&router, &arbiter); err != nil {
		return nil, err
	}
	specs, err := c.nodes(nil)
	if err != nil {
		return nil, err
	}
	scale := c.scaleConfig()
	scale.Seed = c.Seed ^ ProvisionSalt
	scale.Provision = func(id int, seed uint64) (fleet.NodeSpec, error) {
		return c.node(seed, seed, nil), nil
	}
	cfg := ctrlplane.Config{
		Fleet:  fleet.Config{Router: router, Arbiter: arbiter, Collector: c.collector},
		Health: c.healthConfig(),
		Scale:  scale,
	}
	// One plane serves both roles: the fleet hook feeds it
	// publications, and the control plane warm-starts provisioned
	// successors from its aggregates.
	if pl := c.sharePlane(); pl != nil {
		cfg.Fleet.Share = pl
		cfg.WarmStart = pl
	}
	return ctrlplane.New(cfg, specs...)
}

func (c *Compiled) fillPolicy(router *fleet.Router, arbiter *fleet.Arbiter) error {
	r, a, err := c.Policy()
	*router, *arbiter = cmp.Or(*router, r), cmp.Or(*arbiter, a)
	return err
}

// Result is one scenario run: the fleet result plus the control-plane
// record when the scenario is managed.
type Result struct {
	Fleet   *fleet.Result
	Control *ctrlplane.Result
}

// Run compiles-and-drives in one step: build the spec's own policy
// and driver (control plane when managed, bare fleet otherwise) and
// run it over the compiled patterns for the full slice count.
func (c *Compiled) Run() (*Result, error) {
	if c.Managed {
		cp, err := c.BuildControlPlane(nil, nil)
		if err != nil {
			return nil, err
		}
		defer cp.Close()
		res, err := cp.Run(c.Slices, c.LoadPat, c.BudgetPat)
		if err != nil {
			return nil, err
		}
		return &Result{Fleet: res.Fleet, Control: res}, nil
	}
	f, err := c.BuildFleet(nil, nil)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := f.Run(c.Slices, c.LoadPat, c.BudgetPat)
	if err != nil {
		return nil, err
	}
	return &Result{Fleet: res}, nil
}
