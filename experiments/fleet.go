package experiments

import (
	"fmt"

	"cuttlesys/internal/core"
	"cuttlesys/internal/fault"
	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// Router names for FleetSetup.Routers.
const (
	RouterUniform     = "uniform"
	RouterLeastLoaded = "least-loaded"
	RouterQoSAware    = "qos-aware"
)

// FleetRouters are the routing policies of the scaling study, in
// presentation order.
var FleetRouters = []string{RouterUniform, RouterLeastLoaded, RouterQoSAware}

// FleetSetup parameterises the cluster scaling experiment: CuttleSys
// machines behind a traffic router under a shared power budget, with
// one machine suffering fail-stop core faults mid-run so the routers
// can be compared on how they steer around a degraded node. Zero
// values select a fast smoke-scale run.
type FleetSetup struct {
	// Seed derives every machine's seed (default 1).
	Seed uint64
	// Service is the latency-critical service (default xapian).
	Service string
	// Machines are the fleet sizes to sweep (default 1, 2, 4).
	Machines []int
	// Slices per run (default 8).
	Slices int
	// LoadFrac is the offered fraction of aggregate fleet capacity
	// (default 0.7).
	LoadFrac float64
	// CapFrac is the cluster power cap as a fraction of aggregate
	// reference power (default 0.65).
	CapFrac float64
	// Routers to compare (default FleetRouters).
	Routers []string
	// FaultFree disables the mid-run fail-stop on machine 1, leaving a
	// healthy-cluster sweep.
	FaultFree bool
}

func (s FleetSetup) withDefaults() FleetSetup {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Service == "" {
		s.Service = "xapian"
	}
	if len(s.Machines) == 0 {
		s.Machines = []int{1, 2, 4}
	}
	if s.Slices == 0 {
		s.Slices = 8
	}
	if s.LoadFrac == 0 {
		s.LoadFrac = 0.7
	}
	if s.CapFrac == 0 {
		s.CapFrac = 0.65
	}
	if len(s.Routers) == 0 {
		s.Routers = FleetRouters
	}
	return s
}

// FleetRow is one (fleet size, router) cell of the scaling study.
type FleetRow struct {
	Machines int
	Router   string
	// QoSMetFrac is the fraction of (machine, slice) cells meeting QoS.
	QoSMetFrac    float64
	QoSViolations int
	TotalInstrB   float64
	MeanPowerW    float64
	// ControllerSpeedup is the modeled speedup of running one scheduler
	// per machine in parallel vs a single sequential controller.
	ControllerSpeedup float64
}

func routerFor(name string) (fleet.Router, error) {
	switch name {
	case RouterUniform:
		return fleet.Uniform{}, nil
	case RouterLeastLoaded:
		return fleet.LeastLoaded{}, nil
	case RouterQoSAware:
		return &fleet.QoSAware{}, nil
	}
	return nil, fmt.Errorf("experiments: unknown router %q", name)
}

// FleetScaling sweeps fleet size × routing policy under the headroom
// budget arbiter. Every machine runs the full CuttleSys runtime with
// deterministic-parallel SGD, so rows are deterministic for a fixed
// seed regardless of GOMAXPROCS.
func FleetScaling(s FleetSetup) ([]FleetRow, error) {
	s = s.withDefaults()
	lc, err := workload.ByName(s.Service)
	if err != nil {
		return nil, err
	}
	_, pool := workload.SplitTrainTest(1, 16)

	var rows []FleetRow
	for _, n := range s.Machines {
		for _, rname := range s.Routers {
			router, err := routerFor(rname)
			if err != nil {
				return nil, err
			}
			seeds := fleet.Seeds(s.Seed, n)
			specs := make([]fleet.NodeSpec, n)
			for i := 0; i < n; i++ {
				m := sim.New(sim.Spec{
					Seed: seeds[i], LC: lc,
					Batch:          workload.Mix(seeds[i], pool, 16),
					Reconfigurable: true,
				})
				specs[i] = fleet.NodeSpec{
					Machine:   m,
					Scheduler: core.New(m, core.Params{Seed: seeds[i]}),
				}
				if !s.FaultFree && n > 1 && i == 1 {
					span := float64(s.Slices) * harness.SliceDur
					inj, err := fault.NewSchedule(seeds[i], fault.Event{
						Kind: fault.CoreFailStop, Start: span / 3, End: span, Cores: 8, BatchCores: 2,
					})
					if err != nil {
						return nil, err
					}
					specs[i].Injector = inj
				}
			}
			f, err := fleet.New(fleet.Config{Router: router, Arbiter: fleet.Headroom{}}, specs...)
			if err != nil {
				return nil, err
			}
			res, err := f.Run(s.Slices,
				harness.ConstantLoad(s.LoadFrac), harness.ConstantBudget(s.CapFrac))
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("machines=%d router=%s: %w", n, rname, err)
			}
			rows = append(rows, FleetRow{
				Machines:          n,
				Router:            rname,
				QoSMetFrac:        res.QoSMetFraction(),
				QoSViolations:     res.QoSViolations(),
				TotalInstrB:       res.TotalInstrB(),
				MeanPowerW:        res.MeanPowerW(),
				ControllerSpeedup: res.ModeledControllerSpeedup(),
			})
		}
	}
	return rows, nil
}
