package main

import (
	"fmt"

	"cuttlesys"
	"cuttlesys/specs"
)

// fleetScenarios names the spec-library scenarios the fleet sweep
// runs, in report order.
func fleetScenarios() []string {
	return []string{"steady", "diurnal", "degraded-node", "budget-squeeze"}
}

// fleetPolicy pairs a router with a budget arbiter.
type fleetPolicy struct {
	name    string
	router  func() cuttlesys.Router
	arbiter func() cuttlesys.Arbiter
}

func fleetPolicies() []fleetPolicy {
	return []fleetPolicy{
		{"uniform/proportional",
			func() cuttlesys.Router { return cuttlesys.UniformRouter{} },
			func() cuttlesys.Arbiter { return cuttlesys.ProportionalArbiter{} }},
		{"least-loaded/proportional",
			func() cuttlesys.Router { return cuttlesys.LeastLoadedRouter{} },
			func() cuttlesys.Arbiter { return cuttlesys.ProportionalArbiter{} }},
		{"qos-aware/headroom",
			func() cuttlesys.Router { return &cuttlesys.QoSAwareRouter{} },
			func() cuttlesys.Arbiter { return cuttlesys.HeadroomArbiter{} }},
	}
}

// FleetPolicy is one (scenario, policy) cell. Field order is the JSON
// order.
type FleetPolicy struct {
	Policy string `json:"policy"`
	FleetQuality
	ModeledControllerSpeedup float64 `json:"modeledControllerSpeedup"`
}

// FleetScenario groups the policies under one cluster environment.
type FleetScenario struct {
	Scenario string        `json:"scenario"`
	Policies []FleetPolicy `json:"policies"`
}

// ScalingPoint is one fleet size of the scaling section: the modeled
// controller speedup of stepping that many machines in parallel.
type ScalingPoint struct {
	Machines                 int     `json:"machines"`
	ModeledControllerSpeedup float64 `json:"modeledControllerSpeedup"`
}

// FleetReport is the cluster sweep (BENCH_fleet.json): N CuttleSys
// machines behind a traffic router under one shared power budget,
// routing/arbitration policies compared across the steady, diurnal,
// degraded-node and budget-squeeze library specs, with the flags
// overriding each spec's geometry, plus a scaling section over fleet
// sizes. Machine stepping merges in index order and SGD sweeps in
// serial order, so the report does not depend on GOMAXPROCS.
type FleetReport struct {
	Service  string          `json:"service"`
	Machines int             `json:"machines"`
	Slices   int             `json:"slices"`
	Load     float64         `json:"load"`
	Cap      float64         `json:"cap"`
	Seed     uint64          `json:"seed"`
	Results  []FleetScenario `json:"results"`
	Scaling  []ScalingPoint  `json:"scaling"`
}

func fleetReport(p params) (any, error) {
	rep := &FleetReport{
		Service: p.Service, Machines: p.Machines, Slices: p.Slices,
		Load: p.Load, Cap: p.Cap, Seed: p.Seed,
	}
	for _, name := range fleetScenarios() {
		comp, err := compileLibrary(name, p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sr := FleetScenario{Scenario: name}
		for _, pol := range fleetPolicies() {
			res, err := runFleet(comp, p.Slices, pol)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, pol.name, err)
			}
			sr.Policies = append(sr.Policies, FleetPolicy{
				Policy:                   pol.name,
				FleetQuality:             fleetQuality(res),
				ModeledControllerSpeedup: round4(res.ModeledControllerSpeedup()),
			})
		}
		rep.Results = append(rep.Results, sr)
	}
	// Scaling: the controller-side speedup of parallel stepping, from
	// the schedulers' own charged overheads (deterministic — see
	// FleetResult.ModeledControllerSpeedup). The steady spec recompiled
	// per fleet size supplies the constant patterns.
	for _, n := range []int{1, 4, 16} {
		q := p
		q.Machines, q.Slices = n, 4
		comp, err := compileLibrary("steady", q)
		if err != nil {
			return nil, fmt.Errorf("scaling %d: %w", n, err)
		}
		res, err := runFleet(comp, q.Slices, fleetPolicies()[0])
		if err != nil {
			return nil, fmt.Errorf("scaling %d: %w", n, err)
		}
		rep.Scaling = append(rep.Scaling, ScalingPoint{
			Machines:                 n,
			ModeledControllerSpeedup: round4(res.ModeledControllerSpeedup()),
		})
	}
	return rep, nil
}

func runFleet(comp *cuttlesys.CompiledScenario, slices int, pol fleetPolicy) (*cuttlesys.FleetResult, error) {
	f, err := comp.BuildFleet(pol.router(), pol.arbiter())
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Run(slices, comp.LoadPat, comp.BudgetPat)
}

// compileLibrary compiles one embedded library spec against p's
// geometry.
func compileLibrary(name string, p params) (*cuttlesys.CompiledScenario, error) {
	sp, err := librarySpec(name)
	if err != nil {
		return nil, err
	}
	return compile(sp, specs.FS, p)
}
