package main

import (
	"fmt"
	"strings"

	"cuttlesys"
	"cuttlesys/specs"
)

// fleetScenarios names the spec-library scenarios the fleet sweep
// runs, in report order.
func fleetScenarios() []string {
	return []string{"steady", "diurnal", "degraded-node", "budget-squeeze"}
}

// fleetPolicies names the router/arbiter pairs the fleet sweep
// compares, in report order; each is set on the spec's policy clause.
func fleetPolicies() []string {
	return []string{"uniform/proportional", "least-loaded/proportional", "qos-aware/headroom"}
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
		sr := FleetScenario{Scenario: name}
		for _, pol := range fleetPolicies() {
			res, err := fleetCell(name, pol, p)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, pol, err)
			}
			sr.Policies = append(sr.Policies, FleetPolicy{
				Policy:                   pol,
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
		res, err := fleetCell("steady", fleetPolicies()[0], q)
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

// fleetCell runs library spec name against p's geometry under policy,
// a "router/arbiter" pair set on the spec's policy clause.
func fleetCell(name, policy string, p params) (*cuttlesys.FleetResult, error) {
	sp, err := librarySpec(name)
	if err != nil {
		return nil, err
	}
	sp.Policy.Router, sp.Policy.Arbiter, _ = strings.Cut(policy, "/")
	comp, err := compile(sp, specs.FS, p)
	if err != nil {
		return nil, err
	}
	res, err := comp.Run()
	if err != nil {
		return nil, err
	}
	return res.Fleet, nil
}
