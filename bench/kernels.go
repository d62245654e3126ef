package main

import (
	"fmt"
	"io"
	"math"

	"cuttlesys/internal/baseline"
	"cuttlesys/internal/config"
	"cuttlesys/internal/core"
	"cuttlesys/internal/ctrlplane"
	"cuttlesys/internal/dds"
	"cuttlesys/internal/fault"
	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/modelplane"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/perf"
	"cuttlesys/internal/power"
	"cuttlesys/internal/qsim"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/scenario"
	"cuttlesys/internal/sgd"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/stats"
	"cuttlesys/internal/workload"
)

// Kernel timing: each kernel is run in batches of at least batchFloorNs
// and the median batch gives the per-call time. Kernels slower than
// slowKernelNs per call run fewer batches, or the set would take
// minutes; the batch count is still odd so the median is a real sample.
const (
	batchFloorNs  = 1e6
	kernelBatches = 31
	slowKernelNs  = 50e6
	slowBatches   = 7
)

// kernelSink keeps kernel results live so the compiler cannot drop the
// calls being timed.
var kernelSink float64

// timeKernel returns the median time of one call of fn(n)/n in
// nanoseconds; fn runs its operation n times. A smoke run times a
// single call: enough to prove the kernel runs, not to measure it.
func timeKernel(fn func(n int), smoke bool) float64 {
	call := func() float64 {
		t0 := now()
		fn(1)
		return float64(since(t0).Nanoseconds())
	}
	one := call()
	if smoke {
		return one
	}
	if one < slowKernelNs {
		one = call() // the first call paid for cold caches and lazy set-up
	}
	n, batches := 1, kernelBatches
	if one < batchFloorNs {
		n = int(math.Ceil(batchFloorNs / math.Max(one, 1)))
	}
	if one > slowKernelNs {
		batches = slowBatches
	}
	per := make([]float64, batches)
	for b := range per {
		t0 := now()
		fn(n)
		per[b] = float64(since(t0).Nanoseconds()) / float64(n)
	}
	return stats.Percentile(per, 0.5)
}

// Runtime geometry of the reconstruction matrices: 16 offline training
// rows, 16 running batch rows and the service's row, by 108
// configurations, at the runtime's SGD settings.
const (
	kernelTrainRows   = 16
	kernelRunningRows = 16
)

func runtimeSGDParams(seed uint64) sgd.Params {
	return sgd.Params{
		Factors: 6, Reg: 0.03, MaxIter: 300, SVDInit: true, LogSpace: true,
		Deterministic: true, Seed: seed,
	}
}

// reconstructionPair builds the throughput and power matrices the
// runtime would hold: training rows fully observed, each running row
// observed in a fraction of its cells (at least the two profiling
// extremes).
func reconstructionPair(seed uint64, observedFrac float64) (thr, pwr *sgd.Matrix) {
	pm, wm := perf.New(true), power.New(true)
	train, pool := workload.SplitTrainTest(1, kernelTrainRows)
	running := workload.Mix(seed, pool, kernelRunningRows)
	rows := kernelTrainRows + kernelRunningRows + 1
	thr = sgd.NewMatrix(kernelTrainRows+kernelRunningRows, config.NumResources)
	pwr = sgd.NewMatrix(rows, config.NumResources)
	for i, app := range train {
		bips, watts := sim.BatchSurfaces(pm, wm, app)
		thr.ObserveRow(i, bips)
		pwr.ObserveRow(i, watts)
	}
	r := rng.New(seed ^ 0x6b65726e)
	widest := config.Resource{Core: config.Widest, Cache: config.OneWay}.Index()
	narrowest := config.Resource{Core: config.Narrowest, Cache: config.OneWay}.Index()
	for i, app := range running {
		bips, watts := sim.BatchSurfaces(pm, wm, app)
		row := kernelTrainRows + i
		for j := 0; j < config.NumResources; j++ {
			if j == widest || j == narrowest || r.Float64() < observedFrac {
				thr.Observe(row, j, bips[j])
				pwr.Observe(row, j, watts[j])
			}
		}
	}
	// The service's power row: two profiled cells, like a young runtime.
	pwr.Observe(rows-1, widest, 3.1)
	pwr.Observe(rows-1, narrowest, 1.2)
	return thr, pwr
}

// searchObjective is a 16-job separable objective of the runtime's
// shape: geometric-mean throughput with a soft power penalty.
func searchObjective(seed uint64) (*dds.SeparableObjective, dds.Params) {
	pm, wm := perf.New(true), power.New(true)
	_, pool := workload.SplitTrainTest(1, kernelTrainRows)
	jobs := workload.Mix(seed, pool, kernelRunningRows)
	const k = 2
	obj := &dds.SeparableObjective{K: k, Base: make([]float64, k), Terms: make([][]float64, len(jobs))}
	budget := 0.0
	for d, app := range jobs {
		bips, watts := sim.BatchSurfaces(pm, wm, app)
		obj.Terms[d] = make([]float64, config.NumResources*k)
		for j := range bips {
			obj.Terms[d][j*k] = math.Log(math.Max(bips[j], 1e-9))
			obj.Terms[d][j*k+1] = watts[j]
		}
		budget += 0.6 * watts[config.Resource{Core: config.Widest, Cache: config.OneWay}.Index()]
	}
	n := float64(len(jobs))
	obj.Finish = func(acc []float64) float64 {
		score := math.Exp(acc[0] / n)
		if over := acc[1] - budget; over > 0 {
			score -= 2 * over
		}
		return score
	}
	return obj, dds.Params{Dims: len(jobs), NumConfigs: config.NumResources, Workers: 8, Seed: seed}
}

// noGatingFleet is 8 xapian machines under the no-gating reference
// policy: the cheapest scheduler there is, so stepping it times the
// harness, the simulator and the fleet fold and nothing else.
func noGatingFleet(seed uint64) ([]fleet.NodeSpec, error) {
	lc, err := workload.ByName("xapian")
	if err != nil {
		return nil, err
	}
	_, pool := workload.SplitTrainTest(1, kernelTrainRows)
	seeds := fleet.Seeds(seed, 8)
	specs := make([]fleet.NodeSpec, len(seeds))
	for i, s := range seeds {
		m := sim.New(sim.Spec{Seed: s, LC: lc, Batch: workload.Mix(s, pool, 16)})
		specs[i] = fleet.NodeSpec{Machine: m, Scheduler: harness.Single(baseline.NewNoGating(m))}
	}
	return specs, nil
}

// runKernels times every layer's entry points in isolation. Inputs
// derive from the seed; results are per-call medians in the unit the
// metric table gives.
func runKernels(seed uint64, smoke bool) (map[string]float64, error) {
	out := map[string]float64{}
	ms := func(name string, fn func(n int)) { out[name] = timeKernel(fn, smoke) / 1e6 }
	us := func(name string, fn func(n int)) { out[name] = timeKernel(fn, smoke) / 1e3 }
	ns := func(name string, fn func(n int)) { out[name] = timeKernel(fn, smoke) }

	// sgd
	p := runtimeSGDParams(seed)
	thrCold, pwrCold := reconstructionPair(seed, 0)
	thrDense, pwrDense := reconstructionPair(seed, 0.4)
	ms("sgd.reconstruct_pair_cold_ms", func(n int) {
		for i := 0; i < n; i++ {
			a, _ := sgd.ReconstructPair(thrCold, pwrCold, p, p)
			kernelSink += a.At(0, 0)
		}
	})
	ms("sgd.reconstruct_pair_dense_ms", func(n int) {
		for i := 0; i < n; i++ {
			a, _ := sgd.ReconstructPair(thrDense, pwrDense, p, p)
			kernelSink += a.At(0, 0)
		}
	})
	var facThr, facPwr *sgd.Factors
	ms("sgd.reconstruct_pair_factors_ms", func(n int) {
		for i := 0; i < n; i++ {
			_, _, facThr, facPwr = sgd.ReconstructPairFactors(thrDense, pwrDense, p, p)
		}
	})
	if facThr == nil || facPwr == nil {
		return nil, fmt.Errorf("kernels: reconstruction exported no factors")
	}
	wa, wb := p, p
	wa.Warm, wa.WarmIters = facThr, 40
	wb.Warm, wb.WarmIters = facPwr, 40
	ms("sgd.reconstruct_warm_ms", func(n int) {
		for i := 0; i < n; i++ {
			a, _ := sgd.ReconstructPair(thrDense, pwrDense, wa, wb)
			kernelSink += a.At(0, 0)
		}
	})
	ms("sgd.reconstruct_serial_ms", func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += sgd.Reconstruct(thrDense, p).At(0, 0)
		}
	})
	hog := p
	hog.Deterministic = false
	ms("sgd.reconstruct_hogwild_ms", func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += sgd.ReconstructParallel(thrDense, hog).At(0, 0)
		}
	})

	// dds
	obj, sp := searchObjective(seed)
	ms("dds.search_separable_ms", func(n int) {
		for i := 0; i < n; i++ {
			r := dds.SearchSeparable(obj, sp)
			kernelSink += r.BestVal
			out["dds.evals_per_search"] = float64(r.Evals)
		}
	})
	ref := obj.Func()
	ms("dds.search_reference_ms", func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += dds.SearchReference(ref, sp).BestVal
		}
	})

	// perf, power
	pm, wm := perf.New(true), power.New(true)
	xapian, err := workload.ByName("xapian")
	if err != nil {
		return nil, err
	}
	silo, err := workload.ByName("silo")
	if err != nil {
		return nil, err
	}
	_, pool := workload.SplitTrainTest(1, kernelTrainRows)
	mix := workload.Mix(seed, pool, 16)
	tbl := perf.NewSurfaceTable(pm, append(append([]*workload.Profile(nil), mix...), xapian))
	us("perf.table_build_us", func(n int) {
		for i := 0; i < n; i++ {
			tbl.Build(1 + 0.01*float64(i&7))
		}
	})
	ns("perf.table_lookup_ns", func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += tbl.IPC(i&15, i%config.NumResources)
		}
	})
	cores := config.AllCores()
	ns("perf.model_ipc_ns", func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += pm.IPC(mix[i&15], cores[i%len(cores)], 2, 1.2)
		}
	})
	ns("power.core_ns", func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += wm.Core(mix[i&15], cores[i%len(cores)], 1.5)
		}
	})

	// qsim
	svc := qsim.NewService(seed, 16)
	const stepQPS, stepSvc = 8000.0, 0.001
	us("qsim.step_us_per_kquery", func(n int) {
		// 0.125 s at 8000 QPS is a thousand queries on average.
		for i := 0; i < n; i++ {
			kernelSink += float64(len(svc.Step(0.125, stepQPS, stepSvc, 0.5)))
		}
	})
	ks := make([]int, 30)
	for i := range ks {
		ks[i] = i + 2
	}
	p99s := make([]float64, len(ks))
	ns("qsim.p99_batch_ns_per_k", func(n int) {
		for i := 0; i < n; i += len(ks) {
			kernelSink += qsim.P99AnalyticBatch(ks, 1500, stepSvc, 0.5, p99s)[0]
		}
	})
	ns("qsim.p99_scalar_ns", func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += qsim.P99Analytic(ks[i%len(ks)], 1500, stepSvc, 0.5)
		}
	})

	// sim
	machineSpec := sim.Spec{Seed: seed, LC: xapian, Batch: mix, Reconfigurable: true}
	m := sim.New(machineSpec)
	alloc := sim.Uniform(len(mix), true, 16, config.Widest, config.OneWay)
	us("sim.run_phase_us", func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += m.Run(alloc, 0.01, 0.5*xapian.MaxQPS).PowerW
		}
	})
	multiSpec := machineSpec
	multiSpec.ExtraLCs = []*workload.Profile{silo}
	mm := sim.New(multiSpec)
	multiAlloc := sim.Uniform(len(mix), true, 8, config.Widest, config.OneWay)
	multiAlloc.ExtraLC = []sim.LCAssign{{Cores: 8, Core: config.Widest, Cache: config.OneWay}}
	multiQPS := []float64{0.3 * xapian.MaxQPS, 0.3 * silo.MaxQPS}
	us("sim.run_multi_phase_us", func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += mm.RunMulti(multiAlloc, 0.01, multiQPS).PowerW
		}
	})
	us("sim.new_machine_us", func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += sim.New(machineSpec).MaxPowerW()
		}
	})

	// core: a fresh training seed misses the characterisation cache, so
	// every call pays the offline characterisation; the default hits it.
	coldSeed := uint64(1000)
	ms("core.new_cold_ms", func(n int) {
		for i := 0; i < n; i++ {
			coldSeed++
			kernelSink += core.New(m, core.Params{Seed: seed, TrainSeed: coldSeed}).DecisionOverheadSec()
		}
	})
	ms("core.new_cached_ms", func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += core.New(m, core.Params{Seed: seed}).DecisionOverheadSec()
		}
	})

	// harness, fleet, ctrlplane on the cheapest scheduler
	fixed := sim.New(sim.Spec{Seed: seed, LC: xapian, Batch: mix})
	d, err := harness.NewDriver(fixed, harness.Single(baseline.NewNoGating(fixed)), nil)
	if err != nil {
		return nil, err
	}
	qps := []float64{0.5 * xapian.MaxQPS}
	var stepErr error
	us("harness.step_nogating_us", func(n int) {
		for i := 0; i < n && stepErr == nil; i++ {
			_, stepErr = d.StepSlice(qps, 0.5, 0.8*fixed.MaxPowerW())
		}
	})
	specs, err := noGatingFleet(seed)
	if err != nil {
		return nil, err
	}
	f, err := fleet.New(fleet.Config{Router: fleet.LeastLoaded{}, Arbiter: fleet.Headroom{}}, specs...)
	if err != nil {
		return nil, err
	}
	us("fleet.step_nogating8_us", func(n int) {
		for i := 0; i < n && stepErr == nil; i++ {
			_, stepErr = f.Step(0.5*f.CapacityQPS(), 0.8*f.RefPowerW())
		}
	})
	f.Close()
	if specs, err = noGatingFleet(seed); err != nil {
		return nil, err
	}
	mgr, err := ctrlplane.New(ctrlplane.Config{
		Fleet: fleet.Config{Router: fleet.LeastLoaded{}, Arbiter: fleet.Headroom{}},
	}, specs...)
	if err != nil {
		return nil, err
	}
	us("ctrlplane.step_nogating8_us", func(n int) {
		for i := 0; i < n && stepErr == nil; i++ {
			_, stepErr = mgr.Step(0.5*mgr.Fleet().CapacityQPS(), 0.8*mgr.Fleet().RefPowerW())
		}
	})
	mgr.Close()
	if stepErr != nil {
		return nil, fmt.Errorf("kernels: step: %w", stepErr)
	}

	// modelplane: eight machines publish four surfaces, then one fold.
	facSet := map[string]*sgd.Factors{"thr": facThr, "pwr": facPwr, "lat": facThr, "svc": facPwr}
	plane := modelplane.New(modelplane.Params{}, nil)
	us("modelplane.publish_aggregate_us", func(n int) {
		for i := 0; i < n; i++ {
			for machine := 0; machine < 8; machine++ {
				plane.PublishFactors(1, machine, i, facSet)
			}
			plane.AggregatePending(i)
		}
	})

	// scenario
	src, err := specFS.ReadFile("specs/ops-churn.spec")
	if err != nil {
		return nil, err
	}
	var spec *scenario.Spec
	var scenErr error
	us("scenario.parse_us", func(n int) {
		for i := 0; i < n && scenErr == nil; i++ {
			spec, scenErr = scenario.Parse(src)
		}
	})
	if scenErr != nil {
		return nil, scenErr
	}
	us("scenario.compile_us", func(n int) {
		for i := 0; i < n && scenErr == nil; i++ {
			_, scenErr = scenario.Compile(spec, scenario.Options{Seed: seed})
		}
	})
	if scenErr != nil {
		return nil, scenErr
	}

	// fault: a profiling sample seen through an active corruption window.
	sched, err := fault.NewSchedule(seed, fault.Event{Kind: fault.ProfileCorrupt, Start: 0, End: math.Inf(1), Prob: 0.5})
	if err != nil {
		return nil, err
	}
	phase := m.Run(alloc, 0.001, 0.5*xapian.MaxQPS)
	ns("fault.observe_phase_ns", func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += sched.ObservePhase(1, phase, true).PowerW
		}
	})

	// workload
	us("workload.mix_us", func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += float64(len(workload.Mix(seed+uint64(i), pool, 16)))
		}
	})

	// obs
	ev := obs.Span(obs.SpanSteady, 1.5, 0.09).With("cfg", "{6,6,6}").WithMachine(3).WithSlice(15)
	ns("obs.emit_ns", func(n int) {
		rec := obs.NewRecorder()
		for i := 0; i < n; i++ {
			rec.Emit(ev)
		}
		kernelSink += float64(rec.Len())
	})
	ns("obs.nop_emit_ns", func(n int) {
		for i := 0; i < n; i++ {
			obs.Nop.Emit(ev)
		}
	})
	events := make([]obs.Event, 1000)
	for i := range events {
		events[i] = ev
		events[i].T = float64(i) * harness.SliceDur
	}
	var writeErr error
	us("obs.write_jsonl_us_per_kevent", func(n int) {
		for i := 0; i < n && writeErr == nil; i++ {
			writeErr = obs.WriteJSONL(io.Discard, events)
		}
	})
	if writeErr != nil {
		return nil, writeErr
	}
	return out, nil
}
