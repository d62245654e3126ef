package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/sgd"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

func mustRun(t *testing.T, m *sim.Machine, rt harness.Scheduler, slices int, load harness.LoadPattern, budget harness.BudgetPattern) *harness.Result {
	t.Helper()
	res, err := harness.Run(m, rt, slices, []harness.LoadPattern{load}, budget, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustRunMulti(t *testing.T, m *sim.Machine, rt harness.Scheduler, slices int, loads []harness.LoadPattern, budget harness.BudgetPattern) *harness.Result {
	t.Helper()
	res, err := harness.Run(m, rt, slices, loads, budget, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func testMachine(t *testing.T, lcName string, seed uint64) *sim.Machine {
	t.Helper()
	lc, err := workload.ByName(lcName)
	if err != nil {
		t.Fatal(err)
	}
	_, test := workload.SplitTrainTest(1, 16)
	return sim.New(sim.Spec{
		Seed:           seed,
		LC:             lc,
		Batch:          workload.Mix(seed, test, 16),
		Reconfigurable: true,
	})
}

func TestProfilePhasesShape(t *testing.T) {
	m := testMachine(t, "xapian", 1)
	rt := New(m, Params{Seed: 1})
	phases := rt.ProfilePhasesMulti([]float64{0.8 * m.LC().MaxQPS}, 100)
	if len(phases) != 2 {
		t.Fatalf("got %d profile phases, want 2", len(phases))
	}
	for _, ph := range phases {
		if ph.Dur != 0.001 {
			t.Fatalf("profile window %v s, want 1 ms", ph.Dur)
		}
		if err := ph.Alloc.Validate(16, true); err != nil {
			t.Fatalf("invalid profile allocation: %v", err)
		}
	}
	// Window A: even jobs widest, odd narrowest; swapped in window B;
	// LC visits both extremes.
	a, b := phases[0].Alloc, phases[1].Alloc
	if a.Batch[0].Core != config.Widest || a.Batch[1].Core != config.Narrowest {
		t.Fatal("window A widths wrong")
	}
	if b.Batch[0].Core != config.Narrowest || b.Batch[1].Core != config.Widest {
		t.Fatal("window B widths wrong")
	}
	if a.LCCore != config.Widest || b.LCCore != config.Narrowest {
		t.Fatal("LC profile configs wrong")
	}
	// Avoiding power overshoot: half the cores wide, half narrow.
	wide := 0
	for _, ba := range a.Batch {
		if ba.Core == config.Widest {
			wide++
		}
	}
	if wide != 8 {
		t.Fatalf("window A has %d wide batch cores, want 8", wide)
	}
}

func TestDecideProducesValidAllocation(t *testing.T) {
	m := testMachine(t, "xapian", 2)
	rt := New(m, Params{Seed: 2})
	qps := []float64{0.8 * m.LC().MaxQPS}
	budget := 0.7 * m.MaxPowerW()
	var results []sim.PhaseResult
	for _, ph := range rt.ProfilePhasesMulti(qps, budget) {
		results = append(results, m.RunMulti(ph.Alloc, ph.Dur, qps))
	}
	alloc, overhead := rt.DecideMulti(results, qps, budget)
	if err := alloc.Validate(16, true); err != nil {
		t.Fatalf("DecideMulti produced invalid allocation: %v", err)
	}
	if overhead <= 0 || overhead > 0.02 {
		t.Fatalf("overhead %v s implausible", overhead)
	}
	if alloc.TotalWays(true) > config.LLCWays {
		t.Fatalf("cache budget violated: %v ways", alloc.TotalWays(true))
	}
}

func TestFullRunMeetsQoSAndBudget(t *testing.T) {
	m := testMachine(t, "silo", 3)
	rt := New(m, Params{Seed: 3})
	res := mustRun(t, m, rt, 10, harness.ConstantLoad(0.8), harness.ConstantBudget(0.7))
	if len(res.Slices) != 10 {
		t.Fatalf("recorded %d slices", len(res.Slices))
	}
	if res.TotalInstrB() <= 0 {
		t.Fatal("no batch work executed")
	}
	// QoS: the paper claims CuttleSys always satisfies QoS. Allow the
	// first slice (cold matrices) to violate, none after warm-up.
	viol := 0
	for _, s := range res.Slices[2:] {
		if s.Violated {
			viol++
		}
	}
	if viol > 1 {
		t.Fatalf("%d QoS violations after warm-up: %v", viol, res)
	}
	// Power: within 10% of budget on most slices.
	if n := res.BudgetViolations(0.10); n > 2 {
		t.Fatalf("%d slices exceeded power budget by >10%%", n)
	}
}

func TestAdaptsToBudgetDrop(t *testing.T) {
	m := testMachine(t, "xapian", 4)
	rt := New(m, Params{Seed: 4})
	res := mustRun(t, m, rt, 14, harness.ConstantLoad(0.8),
		harness.StepBudget(0.9, 0.6, 0.5, 2.0))
	// Throughput under the 60% cap must be below the 90% region.
	hi := res.Slices[3].GmeanBIPS // settled 90% region
	lo := res.Slices[10].GmeanBIPS
	if lo >= hi {
		t.Fatalf("budget drop did not reduce batch throughput: %v -> %v", hi, lo)
	}
	// And power must track the cap.
	if res.Slices[10].AvgPowerW > res.Slices[10].BudgetW*1.1 {
		t.Fatalf("power %v far over the dropped budget %v",
			res.Slices[10].AvgPowerW, res.Slices[10].BudgetW)
	}
}

func TestCoreRelocationUnderOverload(t *testing.T) {
	// Drive the service beyond what 16 widest cores can sustain; the
	// runtime must reclaim cores from the batch jobs.
	m := testMachine(t, "moses", 5)
	rt := New(m, Params{Seed: 5})
	res := mustRun(t, m, rt, 12, harness.ConstantLoad(1.4), harness.ConstantBudget(0.9))
	grew := false
	for _, s := range res.Slices {
		if s.LCCores > 16 {
			grew = true
			break
		}
	}
	if !grew {
		t.Fatalf("LC cores never grew under overload: %+v", res.Slices[len(res.Slices)-1])
	}
}

func TestYieldsCoresWhenLoadDrops(t *testing.T) {
	m := testMachine(t, "moses", 6)
	rt := New(m, Params{Seed: 6})
	res := mustRun(t, m, rt, 24, harness.StepLoad(0.2, 1.4, 0.2, 1.0), harness.ConstantBudget(0.9))
	peak, final := 0, res.Slices[len(res.Slices)-1].LCCores
	for _, s := range res.Slices {
		if s.LCCores > peak {
			peak = s.LCCores
		}
	}
	if peak <= 16 {
		t.Skip("overload did not trigger relocation in this seeding; covered elsewhere")
	}
	if final >= peak {
		t.Fatalf("cores never yielded back: peak %d, final %d", peak, final)
	}
}

func TestLowLoadUsesCheaperConfigs(t *testing.T) {
	// Fig. 8a: at low load the LC service runs in a downsized
	// configuration, leaving power for the batch jobs.
	m := testMachine(t, "xapian", 7)
	rt := New(m, Params{Seed: 7})
	res := mustRun(t, m, rt, 10, harness.ConstantLoad(0.2), harness.ConstantBudget(0.7))
	last := res.Slices[len(res.Slices)-1]
	if last.LCCoreCfg == config.Widest.String() {
		t.Fatalf("LC stuck on widest config at 20%% load (cfg %s)", last.LCCoreCfg)
	}
	if last.Violated {
		t.Fatal("QoS violated at low load")
	}
}

func TestBatchOnlyMachine(t *testing.T) {
	_, test := workload.SplitTrainTest(1, 16)
	m := sim.New(sim.Spec{Seed: 8, Batch: workload.Mix(8, test, 32), Reconfigurable: true})
	rt := New(m, Params{Seed: 8})
	res := mustRun(t, m, rt, 5, harness.ConstantLoad(0), harness.ConstantBudget(0.6))
	if res.TotalInstrB() <= 0 {
		t.Fatal("batch-only machine executed nothing")
	}
	if n := res.BudgetViolations(0.10); n > 1 {
		t.Fatalf("%d budget violations on batch-only machine", n)
	}
}

func TestMultiServiceQoS(t *testing.T) {
	// §VII-A: "CuttleSys is generalizable to any number of LC and batch
	// services, as long as the system is not oversubscribed." Two
	// services (xapian + silo) on 8 cores each plus 16 batch jobs: both
	// must meet QoS while the batch side still makes progress.
	xapian := mustApp(t, "xapian")
	silo := mustApp(t, "silo")
	_, test := workload.SplitTrainTest(1, 16)
	m := sim.New(sim.Spec{
		Seed:           21,
		LC:             xapian,
		ExtraLCs:       []*workload.Profile{silo},
		Batch:          workload.Mix(21, test, 16),
		Reconfigurable: true,
	})
	rt := New(m, Params{Seed: 21})
	// Loads sized to the services' 8-core initial allocations: load is
	// defined against the 16-core max-QPS knee (§VII-A), so 0.45 on 8
	// cores is the same utilisation as 0.9 on 16.
	res := mustRunMulti(t, m, rt, 12,
		[]harness.LoadPattern{harness.ConstantLoad(0.45), harness.ConstantLoad(0.4)},
		harness.ConstantBudget(0.8))
	if res.TotalInstrB() <= 0 {
		t.Fatal("no batch work with two services")
	}
	viol := 0
	for _, s := range res.Slices[2:] { // allow cold-start warm-up
		if s.Violated {
			viol++
		}
		for _, v := range s.ExtraViolated {
			if v {
				viol++
			}
		}
	}
	if viol > 1 {
		t.Fatalf("%d QoS violations across two services after warm-up", viol)
	}
	// Both services should end up on their own configurations.
	last := res.Slices[len(res.Slices)-1]
	if len(last.ExtraP99Ms) != 1 || last.ExtraP99Ms[0] <= 0 {
		t.Fatalf("extra service latency not recorded: %+v", last.ExtraP99Ms)
	}
	if last.ExtraLCCores[0] <= 0 {
		t.Fatal("extra service lost its cores")
	}
}

func TestMultiServiceRelocation(t *testing.T) {
	// Overload only the second service: it alone should reclaim cores.
	moses := mustApp(t, "moses")
	silo := mustApp(t, "silo")
	_, test := workload.SplitTrainTest(1, 16)
	m := sim.New(sim.Spec{
		Seed:           22,
		LC:             silo,
		ExtraLCs:       []*workload.Profile{moses},
		Batch:          workload.Mix(22, test, 16),
		Reconfigurable: true,
	})
	rt := New(m, Params{Seed: 22})
	res := mustRunMulti(t, m, rt, 12,
		[]harness.LoadPattern{harness.ConstantLoad(0.4), harness.ConstantLoad(2.6)},
		harness.ConstantBudget(0.9))
	grew := false
	for _, s := range res.Slices {
		if len(s.ExtraLCCores) > 0 && s.ExtraLCCores[0] > 8 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("overloaded extra service never reclaimed cores")
	}
}

// mustApp resolves a workload profile by name, failing the test on a
// bad name so the error is never silently dropped.
func mustApp(t testing.TB, name string) *workload.Profile {
	t.Helper()
	app, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestTrainingRowsSingleFlight: goroutines that miss the
// characterisation cache on the same key together characterise it
// once — the split's batch blocks once, its latency-critical blocks
// once — and all receive those blocks; a second core count on the same
// split characterises only its own latency-critical blocks.
func TestTrainingRowsSingleFlight(t *testing.T) {
	const callers = 8
	const trainSeed = 0x51f1 // a split no other test uses
	for _, k := range []trainKey{{trainSeed, 0, 0}, {trainSeed, 2, 8}, {trainSeed, 2, 4}} {
		trainCache.Delete(k) // cold under -count > 1 too
	}
	before := trainComputes.Load()
	got := make([]*trainBlocks, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = trainingBlocks(trainSeed, 2, 8)
		}(g)
	}
	close(start)
	wg.Wait()
	if n := trainComputes.Load() - before; n != 2 {
		t.Fatalf("%d concurrent misses ran %d characterisations, want 2 (batch, latency-critical)", callers, n)
	}
	for g, b := range got {
		if b.lat.Rows != 2 || b.svc.Rows != 2 || b.thr.Rows != NTrainBatch || b.pwr.Rows != NTrainBatch {
			t.Fatalf("caller %d got blocks of %d, %d, %d and %d rows", g, b.thr.Rows, b.pwr.Rows, b.lat.Rows, b.svc.Rows)
		}
		if b != got[0] {
			t.Fatalf("caller %d got its own blocks, want the shared ones", g)
		}
	}
	if again := trainingBlocks(trainSeed, 2, 8); again != got[0] || trainComputes.Load()-before != 2 {
		t.Fatal("a later hit recomputed or returned different blocks")
	}
	other := trainingBlocks(trainSeed, 2, 4)
	if n := trainComputes.Load() - before; n != 3 {
		t.Fatalf("a second core count on the split ran %d characterisations in all, want 3", n)
	}
	if other.thr != got[0].thr || other.pwr != got[0].pwr || other.lat == got[0].lat {
		t.Fatal("a second core count did not share the split's batch blocks alone")
	}

	// The exported rows are the ones a runtime's latency matrix is
	// seeded with, read from the cache New filled.
	rt := New(testMachine(t, "xapian", 1), Params{Seed: 1})
	before = trainComputes.Load()
	lat := TrainingLatencyRows(rt.svcs[0].initCores)
	if n := trainComputes.Load() - before; n != 0 {
		t.Fatalf("TrainingLatencyRows ran %d characterisations after New, want 0", n)
	}
	if len(lat) != nTrainLC {
		t.Fatalf("%d latency rows, want %d", len(lat), nTrainLC)
	}
	for i, row := range lat {
		for j, v := range row {
			if !rt.latM.Known(i, j) || math.Float64bits(rt.latM.At(i, j)) != math.Float64bits(v) {
				t.Fatalf("row %d col %d: exported %v, runtime trains on %v", i, j, v, rt.latM.At(i, j))
			}
		}
	}
}

// TestNewRejectsInvalidSGDParams checks that reconstruction parameters
// no decision could use fail at construction, with sgd's own message,
// instead of travelling to the first decision.
func TestNewRejectsInvalidSGDParams(t *testing.T) {
	m := testMachine(t, "xapian", 1)
	for _, tc := range []struct {
		name  string
		sgd   sgd.Params
		field string
	}{
		{"Reg NaN", sgd.Params{Reg: math.NaN()}, "Reg"},
		{"Reg -5", sgd.Params{Reg: -5}, "Reg"},
		{"Reg +Inf", sgd.Params{Reg: math.Inf(1)}, "Reg"},
		{"MaxIter -3", sgd.Params{MaxIter: -3}, "MaxIter"},
		{"WarmIters -1", sgd.Params{WarmIters: -1}, "WarmIters"},
		{"Factors -6", sgd.Params{Factors: -6}, "Factors"},
		{"FactorMinObs -1", sgd.Params{FactorMinObs: -1}, "FactorMinObs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.HasPrefix(msg, "sgd: "+tc.field+" ") {
					t.Fatalf("New panicked with %q, want an \"sgd: %s ...\" panic", msg, tc.field)
				}
			}()
			New(m, Params{Seed: 1, SGD: tc.sgd})
		})
	}
}
