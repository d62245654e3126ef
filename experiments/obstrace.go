package experiments

import (
	"fmt"

	"cuttlesys/internal/core"
	"cuttlesys/internal/fault"
	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// ObsTraceSetup parameterises the canonical traced fleet chaos run:
// CuttleSys machines behind the QoS-aware router and headroom arbiter,
// with a mid-run fail-stop on machine 1 that recovers before the run
// ends, so the trace carries the full profile→decide→hold structure
// plus fault inject/recover instants. Zero values select the seeded
// reference configuration behind BENCH_obs.json and `make trace`.
type ObsTraceSetup struct {
	// Seed derives every machine's seed (default 1).
	Seed uint64
	// Service is the latency-critical service (default xapian).
	Service string
	// Machines is the fleet size (default 3).
	Machines int
	// Slices per run (default 10).
	Slices int
	// LoadFrac is the offered fraction of aggregate capacity (default 0.7).
	LoadFrac float64
	// CapFrac is the cluster cap as a fraction of reference power
	// (default 0.65).
	CapFrac float64
	// FaultFree disables the mid-run fail-stop.
	FaultFree bool
}

func (s ObsTraceSetup) withDefaults() ObsTraceSetup {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Service == "" {
		s.Service = "xapian"
	}
	if s.Machines == 0 {
		s.Machines = 3
	}
	if s.Slices == 0 {
		s.Slices = 10
	}
	if s.LoadFrac == 0 {
		s.LoadFrac = 0.7
	}
	if s.CapFrac == 0 {
		s.CapFrac = 0.65
	}
	return s
}

// RunObsTrace executes the traced fleet chaos run and returns the
// recorder holding its trace, metrics and profile alongside the fleet
// result. Every simulated-time export from the recorder is
// byte-deterministic for a fixed setup at any GOMAXPROCS: machines
// run deterministic-parallel SGD and the recorder orders events
// canonically.
func RunObsTrace(s ObsTraceSetup) (*obs.Recorder, *fleet.Result, error) {
	s = s.withDefaults()
	lc, err := workload.ByName(s.Service)
	if err != nil {
		return nil, nil, err
	}
	_, pool := workload.SplitTrainTest(1, 16)

	rec := obs.NewRecorder()
	seeds := fleet.Seeds(s.Seed, s.Machines)
	specs := make([]fleet.NodeSpec, s.Machines)
	span := float64(s.Slices) * harness.SliceDur
	for i := 0; i < s.Machines; i++ {
		m := sim.New(sim.Spec{
			Seed: seeds[i], LC: lc,
			Batch:          workload.Mix(seeds[i], pool, 16),
			Reconfigurable: true,
		})
		specs[i] = fleet.NodeSpec{
			Machine:   m,
			Scheduler: core.New(m, core.Params{Seed: seeds[i]}),
		}
		if !s.FaultFree && s.Machines > 1 && i == 1 {
			// The window closes at 2/3 of the run so the recover instant
			// lands inside the trace.
			inj, err := fault.NewSchedule(seeds[i], fault.Event{
				Kind: fault.CoreFailStop, Start: span / 3, End: 2 * span / 3,
				Cores: 8, BatchCores: 2,
			})
			if err != nil {
				return nil, nil, err
			}
			specs[i].Injector = inj
		}
	}
	f, err := fleet.New(fleet.Config{
		Router:    &fleet.QoSAware{},
		Arbiter:   fleet.Headroom{},
		Collector: rec,
	}, specs...)
	if err != nil {
		return nil, nil, err
	}
	res, err := f.Run(s.Slices,
		harness.ConstantLoad(s.LoadFrac), harness.ConstantBudget(s.CapFrac))
	f.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("obs trace run: %w", err)
	}
	return rec, res, nil
}
