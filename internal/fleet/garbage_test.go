package fleet_test

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"cuttlesys/internal/baseline"
	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// TestSteadySliceAllocatesOnlyItsRecords pins the substrate's garbage.
// Once warm, a step of a one-machine fleet under each baseline the
// substrate benchmark runs allocates what the step's records keep and
// nothing else: the machine record's BatchInstrB and the fleet
// record's five per-member slices, plus one block of each history when
// it fills. Phase results, allocations, the schedulers' estimates and
// the fan-out's cells are scratch that lives with the machine, the
// driver, the scheduler or the fleet.
func TestSteadySliceAllocatesOnlyItsRecords(t *testing.T) {
	silo, err := workload.ByName("silo")
	if err != nil {
		t.Fatal(err)
	}
	_, pool := workload.SplitTrainTest(1, 16)
	policies := []struct {
		name string
		new  func(m *sim.Machine) harness.Scheduler
	}{
		{"core-gating", func(m *sim.Machine) harness.Scheduler {
			return baseline.NewCoreGating(m, baseline.DescendingPower, false, 5)
		}},
		{"core-gating+wp", func(m *sim.Machine) harness.Scheduler {
			return baseline.NewCoreGating(m, baseline.DescendingPower, true, 5)
		}},
		{"asymm-oracle", func(m *sim.Machine) harness.Scheduler { return baseline.NewAsymmetric(m, true) }},
		{"no-gating", func(m *sim.Machine) harness.Scheduler { return baseline.NewNoGating(m) }},
		{"dvfs-maxbips", func(m *sim.Machine) harness.Scheduler { return baseline.NewDVFS(m, 5) }},
	}
	nodeBlock := fleet.HistoryBlock * uint64(reflect.TypeOf(harness.SliceRecord{}).Size())
	fleetBlock := fleet.HistoryBlock * uint64(reflect.TypeOf(fleet.SliceRecord{}).Size())
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			m := sim.New(sim.Spec{Seed: 9, LC: silo, Batch: workload.Mix(3, pool, 16)})
			f, err := fleet.New(fleet.Config{Router: fleet.LeastLoaded{}, Arbiter: fleet.Headroom{}, Workers: 1},
				fleet.NodeSpec{Machine: m, Scheduler: p.new(m)})
			if err != nil {
				t.Fatal(err)
			}
			var rec fleet.SliceRecord
			step := func() {
				var err error
				if rec, err = f.Step(0.7*f.CapacityQPS(), 0.7*f.RefPowerW()); err != nil {
					t.Fatal(err)
				}
			}
			// Warm up to a full block of each history: the sojourn buffers
			// and every scratch slice have reached their steady size.
			for range 5 * fleet.HistoryBlock {
				step()
			}
			// The runtime allocates for itself: a collection (its first one
			// starts the mark workers' goroutines) and a new OS thread.
			// Collect now and not while measuring, measure on one P, and
			// keep the least of three rounds.
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			res := f.Result()
			last := &res.Nodes[0].Slices[len(res.Nodes[0].Slices)-1]
			// What one step keeps, each object rounded up to the 16-byte
			// granule of its size class.
			keptAllocs := uint64(6)
			keptBytes := round16(8*cap(last.BatchInstrB)) + round16(8*cap(rec.Members)) +
				round16(8*cap(rec.NodeQPS)) + round16(8*cap(rec.NodeBudgetW)) +
				round16(8*cap(rec.NodeP99Ms)) + round16(cap(rec.NodeViolated))

			fillAllocs, fillBytes := ^uint64(0), ^uint64(0)
			steadyAllocs, steadyBytes := ^uint64(0), ^uint64(0)
			perRun := math.Inf(1)
			for range 3 {
				// The next step fills a block of both histories, and the
				// 31 after it (AllocsPerRun's warm-up call, its 20 runs and
				// 10 more) fill none.
				a, b := measure(1, step)
				fillAllocs, fillBytes = min(fillAllocs, a), min(fillBytes, b)
				perRun = min(perRun, testing.AllocsPerRun(20, step))
				a, b = measure(10, step)
				steadyAllocs, steadyBytes = min(steadyAllocs, a), min(steadyBytes, b)
			}
			if fillAllocs > keptAllocs+2 || fillBytes > keptBytes+(nodeBlock+fleetBlock)*9/8 {
				t.Errorf("block-filling step: %d allocations, %d B; its records keep %d, %d B plus blocks of %d B and %d B",
					fillAllocs, fillBytes, keptAllocs, keptBytes, nodeBlock, fleetBlock)
			}
			if perRun > float64(keptAllocs) {
				t.Errorf("steady step: %v allocations, its records keep %d", perRun, keptAllocs)
			}
			if steadyAllocs > 10*keptAllocs || steadyBytes > 10*keptBytes {
				t.Errorf("10 steady steps: %d allocations, %d B; their records keep %d, %d B",
					steadyAllocs, steadyBytes, 10*keptAllocs, 10*keptBytes)
			}
		})
	}
}

// measure runs fn n times and returns the heap allocations and bytes
// it made.
func measure(n int, fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		fn()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

func round16(n int) uint64 { return uint64(n+15) / 16 * 16 }
