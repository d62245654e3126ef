package cuttlesys_test

// One benchmark per table and figure of the paper's evaluation. Each
// bench regenerates its experiment at smoke scale and reports the
// headline quantity through testing.B metrics (b.ReportMetric), so
// `go test -bench=. -benchmem` both times the harness and prints the
// reproduced numbers. Paper-scale runs are `cuttlesys paper <row>`
// with -mixes/-slices raised (cmd/cuttlesys).

import (
	"fmt"
	"testing"

	"cuttlesys"
	"cuttlesys/experiments"
)

func benchSetup() experiments.Setup {
	return experiments.Setup{
		Seed:            1,
		Services:        []string{"xapian", "silo"},
		MixesPerService: 1,
		Slices:          8,
		Caps:            []float64{0.9, 0.55},
	}
}

// BenchmarkFig1Characterization regenerates the §III characterisation:
// tail latency and power of the five services across all 27 core
// configurations at 20% and 80% load.
func BenchmarkFig1Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig1([]float64{0.2, 0.8}, 1, 0.2)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTableIISGDReconstruction times the two parallel paired SGD
// reconstructions of one decision quantum (paper: 4.8 ms on a 32-core
// server; see EXPERIMENTS.md for host scaling).
func BenchmarkTableIISGDReconstruction(b *testing.B) {
	var last experiments.TableIIResult
	for i := 0; i < b.N; i++ {
		last = experiments.TableIIOverheads(uint64(i + 1))
	}
	b.ReportMetric(last.SGDSec*1e3, "sgd-ms")
}

// BenchmarkTableIIDDSSearch times one parallel DDS search at the
// Fig. 6 parameters (paper: 1.3 ms).
func BenchmarkTableIIDDSSearch(b *testing.B) {
	var last experiments.TableIIResult
	for i := 0; i < b.N; i++ {
		last = experiments.TableIIOverheads(uint64(i + 101))
	}
	b.ReportMetric(last.DDSSec*1e3, "dds-ms")
}

// BenchmarkFig5aIsolationAccuracy regenerates the isolated-application
// reconstruction accuracy study and reports the throughput quartile
// spread (paper: within ±10%).
func BenchmarkFig5aIsolationAccuracy(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Fig5aIsolation(uint64(i + 1)) {
			if r.Metric == "throughput" {
				spread = r.Box.P75 - r.Box.P25
			}
		}
	}
	b.ReportMetric(spread, "thr-iqr-pct")
}

// BenchmarkFig5bRuntimeAccuracy regenerates the colocated runtime
// accuracy study (Fig. 5b).
func BenchmarkFig5bRuntimeAccuracy(b *testing.B) {
	s := benchSetup()
	s.Services = []string{"xapian"}
	for i := 0; i < b.N; i++ {
		if res, err := experiments.Fig5bColocation(s); err != nil || len(res) == 0 {
			b.Fatal("no accuracy results")
		}
	}
}

// BenchmarkFig5cPowerCapSweep regenerates the headline comparison and
// reports CuttleSys's advantage over core-gating+wp at the stringent
// cap (paper: up to 2.46x).
func BenchmarkFig5cPowerCapSweep(b *testing.B) {
	s := benchSetup()
	var advantage float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5cPowerCapSweep(s)
		if err != nil {
			b.Fatal(err)
		}
		var cs, cg float64
		for _, r := range rows {
			if r.Cap == 0.55 {
				switch r.Policy {
				case experiments.PolicyCuttleSys:
					cs = r.RelInstr
				case experiments.PolicyCoreGatingWP:
					cg = r.RelInstr
				}
			}
		}
		advantage = cs / cg
	}
	b.ReportMetric(advantage, "cuttle/gating+wp")
}

// BenchmarkFig7TimesliceTrace regenerates the per-timeslice trace.
func BenchmarkFig7TimesliceTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows, err := experiments.Fig7InstrPerSlice(uint64(i + 2)); err != nil || len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig8aDiurnalLoad regenerates the varying-load dynamics.
func BenchmarkFig8aDiurnalLoad(b *testing.B) {
	var viol int
	for i := 0; i < b.N; i++ {
		viol = 0
		recs, err := experiments.Dynamics(experiments.ScenarioVaryingLoad, uint64(i+3), 16)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if r.Violated {
				viol++
			}
		}
	}
	b.ReportMetric(float64(viol), "qos-violations")
}

// BenchmarkFig8bBudgetStep regenerates the varying-budget dynamics.
func BenchmarkFig8bBudgetStep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if recs, err := experiments.Dynamics(experiments.ScenarioVaryingBudget, uint64(i+4), 16); err != nil || len(recs) == 0 {
			b.Fatal("no records")
		}
	}
}

// BenchmarkFig8cCoreRelocation regenerates the relocation dynamics and
// reports the peak LC core count (paper: grows past the initial 16).
func BenchmarkFig8cCoreRelocation(b *testing.B) {
	peak := 0
	for i := 0; i < b.N; i++ {
		peak = 0
		recs, err := experiments.Dynamics(experiments.ScenarioRelocation, uint64(i+5), 20)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if r.LCCores > peak {
				peak = r.LCCores
			}
		}
	}
	b.ReportMetric(float64(peak), "peak-lc-cores")
}

// BenchmarkFig9RBFvsSGD regenerates the inference comparison and
// reports the RBF/SGD mean-absolute-error ratio on throughput (paper:
// RBF dramatically worse, outliers to ±600%).
func BenchmarkFig9RBFvsSGD(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		mae := map[string]float64{}
		for _, r := range experiments.Fig9RBFvsSGD(uint64(i + 1)) {
			mae[r.Method+"/"+r.Metric] = r.MeanAbs
		}
		ratio = mae["rbf/throughput"] / mae["sgd/throughput"]
	}
	b.ReportMetric(ratio, "rbf/sgd-mae")
}

// BenchmarkFig10aExploration regenerates the DDS-vs-GA exploration
// picture and reports the DDS/GA best-feasible-throughput ratio.
func BenchmarkFig10aExploration(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		points, budget := experiments.Fig10aExploration(uint64(i+6), 0.7)
		d, g := experiments.BestUnderBudget(points, budget)
		ratio = d / g
	}
	b.ReportMetric(ratio, "dds/ga")
}

// BenchmarkFig10bDDSvsGA regenerates the searcher comparison inside
// the full runtime (paper: DDS up to 19% ahead).
func BenchmarkFig10bDDSvsGA(b *testing.B) {
	s := benchSetup()
	s.Services = []string{"xapian"}
	s.Caps = []float64{0.7}
	var ratio float64
	for i := 0; i < b.N; i++ {
		var d, g float64
		rows, err := experiments.Fig10bDDSvsGA(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Searcher == "dds" {
				d = r.GmeanBIPS
			} else {
				g = r.GmeanBIPS
			}
		}
		ratio = d / g
	}
	b.ReportMetric(ratio, "dds/ga-gmean")
}

// BenchmarkTrainingSetSweep regenerates the §VIII-A2 sensitivity study
// and reports the 16-application error (paper: ~10%).
func BenchmarkTrainingSetSweep(b *testing.B) {
	var err16 float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.TrainingSetSweep(nil) {
			if r.NTrain == 16 {
				err16 = r.MeanAbs
			}
		}
	}
	b.ReportMetric(err16, "err16-pct")
}

// benchFleet assembles an n-machine fleet of full CuttleSys runtimes
// stepped by the given worker count (0 = one goroutine per machine).
func benchFleet(b *testing.B, n, workers int) *cuttlesys.Fleet {
	b.Helper()
	lc, err := cuttlesys.AppByName("xapian")
	if err != nil {
		b.Fatal(err)
	}
	_, pool := cuttlesys.SplitTrainTest(1, 16)
	seeds := cuttlesys.FleetSeeds(1, n)
	nodes := make([]cuttlesys.FleetNode, n)
	for i := 0; i < n; i++ {
		m := cuttlesys.NewMachine(cuttlesys.MachineSpec{
			Seed: seeds[i], LC: lc, Batch: cuttlesys.Mix(seeds[i], pool, 16), Reconfigurable: true,
		})
		nodes[i] = cuttlesys.FleetNode{
			Machine:   m,
			Scheduler: cuttlesys.NewRuntime(m, cuttlesys.RuntimeParams{Seed: seeds[i]}),
		}
	}
	f, err := cuttlesys.NewFleet(cuttlesys.FleetConfig{
		Router: cuttlesys.LeastLoadedRouter{}, Arbiter: cuttlesys.HeadroomArbiter{}, Workers: workers,
	}, nodes...)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkFleetStepping times one decision quantum of cluster-scale
// stepping at 1, 4 and 16 machines, serial (one stepping goroutine)
// vs parallel (one per machine). The wall-clock serial/parallel ratio
// is host-dependent — it approaches the machine count on wide hosts
// and 1 on a single-CPU host; the deterministic modeled controller
// speedup is recorded in BENCH_fleet.json's scaling section.
func BenchmarkFleetStepping(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} {
			b.Run(fmt.Sprintf("machines=%d/%s", n, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					f := benchFleet(b, n, mode.workers)
					b.StartTimer()
					res, err := f.Run(2, cuttlesys.ConstantLoad(0.7), cuttlesys.ConstantBudget(0.65))
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					b.ReportMetric(res.ModeledControllerSpeedup(), "modeled-speedup")
					f.Close()
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkDecisionQuantum times one full CuttleSys decision — profile
// extraction, the paired reconstructions, QoS scan, DDS search, budget
// enforcement — on the deterministic trainer every fleet path ships:
// the end-to-end cost a deployment would care about.
func BenchmarkDecisionQuantum(b *testing.B) {
	lc, err := cuttlesys.AppByName("xapian")
	if err != nil {
		b.Fatal(err)
	}
	_, pool := cuttlesys.SplitTrainTest(1, 16)
	m := cuttlesys.NewMachine(cuttlesys.MachineSpec{
		Seed: 1, LC: lc, Batch: cuttlesys.Mix(1, pool, 16), Reconfigurable: true,
	})
	rt := cuttlesys.NewRuntime(m, cuttlesys.RuntimeParams{Seed: 1})
	qps := []float64{0.8 * lc.MaxQPS}
	budget := 0.7 * m.MaxPowerW()
	var profile []cuttlesys.PhaseResult
	for _, ph := range rt.ProfilePhasesMulti(qps, budget) {
		profile = append(profile, m.RunMulti(ph.Alloc, ph.Dur, qps))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.DecideMulti(profile, qps, budget)
	}
}
