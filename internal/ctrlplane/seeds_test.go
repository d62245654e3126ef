package ctrlplane

import (
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// fixedScheduler is the cheapest possible Scheduler for
// membership-churn tests that never step a slice.
type fixedScheduler struct{ alloc sim.Allocation }

func (s *fixedScheduler) Name() string                                          { return "fixed" }
func (s *fixedScheduler) ProfilePhasesMulti([]float64, float64) []harness.Phase { return nil }
func (s *fixedScheduler) DecideMulti([]sim.PhaseResult, []float64, float64) (sim.Allocation, float64) {
	return s.alloc, 0
}
func (s *fixedScheduler) EndSliceMulti(sim.PhaseResult, []float64) {}

func churnSpec(t *testing.T, seed uint64) fleet.NodeSpec {
	t.Helper()
	lc, err := workload.ByName("silo")
	if err != nil {
		t.Fatal(err)
	}
	_, pool := workload.SplitTrainTest(1, 16)
	m := sim.New(sim.Spec{
		Seed: seed, LC: lc,
		Batch:          workload.Mix(seed, pool, 2),
		Reconfigurable: true,
	})
	s := &fixedScheduler{alloc: sim.Uniform(2, true, 16, config.Widest, config.OneWay)}
	return fleet.NodeSpec{Machine: m, Scheduler: s}
}

// TestReplaceEvictedSeedStreamsDisjoint is the regression net under
// the warm-start wiring: across 100 evict/replace cycles every
// successor's RNG stream must stay disjoint from every machine that
// ever lived — the bootstrap fleet's and every earlier successor's.
// Warm-starting shares *model state* between machines; it must never
// share randomness, or sibling machines would correlate their noise
// and the determinism discipline of DESIGN.md §2 would break.
func TestReplaceEvictedSeedStreamsDisjoint(t *testing.T) {
	const initial = 3
	const cycles = 100
	const probe = 4 // stream values drawn per machine

	seen := make(map[uint64][]int)
	record := func(id int, seed uint64) {
		r := rng.New(seed)
		for k := 0; k < probe; k++ {
			v := r.Uint64()
			seen[v] = append(seen[v], id)
		}
	}

	initSeeds := fleet.Seeds(42, initial)
	specs := make([]fleet.NodeSpec, initial)
	for i, s := range initSeeds {
		record(i, s)
		specs[i] = churnSpec(t, s)
	}

	var provSeeds []uint64
	m, err := New(Config{
		Fleet: fleet.Config{Router: fleet.Uniform{}},
		Scale: ScaleConfig{
			Provision: func(id int, seed uint64) (fleet.NodeSpec, error) {
				record(id, seed)
				provSeeds = append(provSeeds, seed)
				return churnSpec(t, seed), nil
			},
			ReplaceEvicted: true,
			Seed:           42 ^ 0x0b5e55ed,
		},
	}, specs...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	for cycle := 0; cycle < cycles; cycle++ {
		victim := m.f.Slots() - 1 // always the newest live machine
		if err := m.evict(victim, "unhealthy"); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if len(provSeeds) != cycles {
		t.Fatalf("provisioned %d successors, want %d", len(provSeeds), cycles)
	}
	for v, ids := range seen {
		if len(ids) > 1 {
			t.Fatalf("stream value %x shared by machines %v: successor seed streams must be disjoint", v, ids)
		}
	}
}

// warmRecorder records which machines the manager offered a warm
// start.
type warmRecorder struct{ ids []int }

func (w *warmRecorder) WarmStartMachine(id int, sched harness.Scheduler) bool {
	w.ids = append(w.ids, id)
	return true
}

// TestProvisionInvokesWarmStarter checks the hook fires for every
// provisioned successor (and never for bootstrap machines).
func TestProvisionInvokesWarmStarter(t *testing.T) {
	w := &warmRecorder{}
	specs := make([]fleet.NodeSpec, 2)
	for i, s := range fleet.Seeds(7, 2) {
		specs[i] = churnSpec(t, s)
	}
	m, err := New(Config{
		Fleet: fleet.Config{Router: fleet.Uniform{}},
		Scale: ScaleConfig{
			Provision: func(id int, seed uint64) (fleet.NodeSpec, error) {
				return churnSpec(t, seed), nil
			},
			ReplaceEvicted: true,
			Seed:           11,
		},
		WarmStart: w,
	}, specs...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if len(w.ids) != 0 {
		t.Fatalf("bootstrap machines must not be warm-started, got %v", w.ids)
	}
	if err := m.evict(1, "unhealthy"); err != nil {
		t.Fatal(err)
	}
	if err := m.evict(2, "unhealthy"); err != nil {
		t.Fatal(err)
	}
	if len(w.ids) != 2 || w.ids[0] != 2 || w.ids[1] != 3 {
		t.Fatalf("warm starter saw %v, want successors [2 3]", w.ids)
	}
}
