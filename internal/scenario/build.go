package scenario

import (
	"fmt"

	"cuttlesys/internal/core"
	"cuttlesys/internal/ctrlplane"
	"cuttlesys/internal/fleet"
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

// catalog resolves the service profile and the batch candidate pool
// the mix clause draws from.
func (c *Compiled) catalog() (*workload.Profile, []*workload.Profile, error) {
	lc, err := workload.ByName(c.Service)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", c.Spec.Name, err)
	}
	_, pool := workload.SplitTrainTest(c.Spec.Mix.TrainSeed, c.Spec.Mix.Train)
	return lc, pool, nil
}

// node builds one machine + scheduler pair from its seed: the batch
// mix, the simulated multicore and the decision runtime all derive
// from that one seed.
func (c *Compiled) node(seed uint64, lc *workload.Profile, pool []*workload.Profile) fleet.NodeSpec {
	m := sim.New(sim.Spec{
		Seed:           seed,
		LC:             lc,
		Batch:          workload.Mix(seed, pool, c.Spec.Mix.Jobs),
		Reconfigurable: true,
	})
	rt := core.New(m, core.Params{
		Seed:         seed,
		ShareFactors: c.Spec.Share != nil,
	})
	return fleet.NodeSpec{Machine: m, Scheduler: rt}
}

// sharePlane builds the spec's model-sharing plane, nil when the spec
// has no share clause. Each Build* call gets its own plane: the store
// is per-run state, like the fleet itself.
func (c *Compiled) sharePlane() *modelplane.Plane {
	sh := c.Spec.Share
	if sh == nil {
		return nil
	}
	return modelplane.New(modelplane.Params{
		SyncPeriod:     sh.SyncPeriod,
		Decay:          sh.Decay.Value(),
		FineTuneIters:  sh.FineTune,
		WarmConfidence: sh.Confidence,
	}, nil)
}

// nodes builds the initial fleet: per-machine seeds from the run
// seed, fault injectors attached per the spec's fault clauses.
func (c *Compiled) nodes() ([]fleet.NodeSpec, *workload.Profile, []*workload.Profile, error) {
	lc, pool, err := c.catalog()
	if err != nil {
		return nil, nil, nil, err
	}
	seeds := fleet.Seeds(c.Seed, c.Machines)
	specs := make([]fleet.NodeSpec, c.Machines)
	for i := range specs {
		specs[i] = c.node(seeds[i], lc, pool)
		inj, err := c.Injector(i, seeds[i])
		if err != nil {
			return nil, nil, nil, err
		}
		specs[i].Injector = inj
	}
	return specs, lc, pool, nil
}

// BuildFleet assembles the unmanaged fleet the spec describes. A nil
// router or arbiter falls back to the spec's policy clause; passing
// both lets sweep drivers reuse one compiled spec across policies.
func (c *Compiled) BuildFleet(router fleet.Router, arbiter fleet.Arbiter) (*fleet.Fleet, error) {
	if err := c.fillPolicy(&router, &arbiter); err != nil {
		return nil, err
	}
	specs, _, _, err := c.nodes()
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
	specs, lc, pool, err := c.nodes()
	if err != nil {
		return nil, err
	}
	scale := c.scaleConfig()
	scale.Seed = c.Seed ^ ProvisionSalt
	scale.Provision = func(id int, seed uint64) (fleet.NodeSpec, error) {
		return c.node(seed, lc, pool), nil
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
	if *router != nil && *arbiter != nil {
		return nil
	}
	r, a, err := c.Policy()
	if err != nil {
		return err
	}
	if *router == nil {
		*router = r
	}
	if *arbiter == nil {
		*arbiter = a
	}
	return nil
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
