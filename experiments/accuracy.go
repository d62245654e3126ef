package experiments

import (
	"fmt"
	"io"
	"math"

	"cuttlesys/internal/config"
	"cuttlesys/internal/core"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/perf"
	"cuttlesys/internal/power"
	"cuttlesys/internal/rbf"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/sgd"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/stats"
	"cuttlesys/internal/workload"
)

// AccuracyResult is one box of the Fig. 5/Fig. 9 error plots: the
// distribution of signed relative errors (percent) for one metric
// under one method.
type AccuracyResult struct {
	Metric string
	Method string
	Box    stats.BoxStats
	// MeanAbs is the mean absolute error in percent.
	MeanAbs float64
}

func accResult(metric, method string, errs []float64) AccuracyResult {
	sum := 0.0
	for _, e := range errs {
		sum += math.Abs(e)
	}
	mean := 0.0
	if len(errs) > 0 {
		mean = sum / float64(len(errs))
	}
	return AccuracyResult{Metric: metric, Method: method, Box: stats.Box(errs), MeanAbs: mean}
}

// sgdParams are the reconstruction hyper-parameters used by the
// accuracy studies — the runtime's settings at full iteration count.
func accuracySGDParams(seed uint64) sgd.Params {
	return sgd.Params{
		Seed: seed, Factors: 6, Reg: 0.03, MaxIter: 800,
		LogSpace: true, SVDInit: true,
	}
}

// Fig5aIsolation reproduces the isolated-application accuracy study
// (§VIII-B, Fig. 5a): 16 training applications are characterised
// across all 108 configurations; each of the 12 test applications and
// 5 latency-critical services contributes two profiled samples, and
// PQ-reconstruction infers the remaining 106. Errors are reported for
// throughput, power and tail latency. The paper's quartiles land
// within 10 % and the 5th/95th percentiles within 20 %.
func Fig5aIsolation(seed uint64) []AccuracyResult {
	pm, wm := perf.New(true), power.New(true)
	train, test := workload.SplitTrainTest(1, 16)
	loIdx := config.Resource{Core: config.Narrowest, Cache: config.OneWay}.Index()
	hiIdx := config.Resource{Core: config.Widest, Cache: config.OneWay}.Index()

	// Throughput and power over batch applications.
	rows := len(train) + len(test)
	thrM := sgd.NewMatrix(rows, config.NumResources)
	pwrM := sgd.NewMatrix(rows, config.NumResources)
	truthT := make([][]float64, rows)
	truthP := make([][]float64, rows)
	for i, app := range train {
		b, p := sim.BatchSurfaces(pm, wm, app)
		truthT[i], truthP[i] = b, p
		thrM.ObserveRow(i, b)
		pwrM.ObserveRow(i, p)
	}
	for k, app := range test {
		i := len(train) + k
		b, p := sim.BatchSurfaces(pm, wm, app)
		truthT[i], truthP[i] = b, p
		thrM.Observe(i, loIdx, b[loIdx])
		thrM.Observe(i, hiIdx, b[hiIdx])
		pwrM.Observe(i, loIdx, p[loIdx])
		pwrM.Observe(i, hiIdx, p[hiIdx])
	}
	params := accuracySGDParams(seed)
	thrPred := sgd.Reconstruct(thrM, params)
	pwrPred := sgd.Reconstruct(pwrM, params)
	var thrErrs, pwrErrs []float64
	for k := range test {
		i := len(train) + k
		for j := 0; j < config.NumResources; j++ {
			if j == loIdx || j == hiIdx {
				continue
			}
			thrErrs = append(thrErrs, stats.RelErrPct(thrPred.At(i, j), truthT[i][j]))
			pwrErrs = append(pwrErrs, stats.RelErrPct(pwrPred.At(i, j), truthP[i][j]))
		}
	}

	// Tail latency over the five services, one at a time (§VIII-B), at
	// 80 % load, with the runtime's reconstruction settings (the
	// utilisation veto, not prediction conservatism, guards the QoS
	// scan against the under-predictions visible here).
	latParams := params
	var latErrs []float64
	variants := lcVariantRows(16)
	for si, app := range workload.TailBench() {
		truth, _ := sim.LCSurfaces(pm, wm, app, 16, 0.8, seed+uint64(si), 0.5, 1)
		latM := sgd.NewMatrix(len(variants)+1, config.NumResources)
		for i, row := range variants {
			latM.ObserveRow(i, row)
		}
		latM.Observe(len(variants), loIdx, truth[loIdx])
		latM.Observe(len(variants), hiIdx, truth[hiIdx])
		pred := sgd.Reconstruct(latM, latParams)
		for j := 0; j < config.NumResources; j++ {
			if j == loIdx || j == hiIdx {
				continue
			}
			latErrs = append(latErrs, stats.RelErrPct(pred.At(len(variants), j), truth[j]))
		}
	}

	return []AccuracyResult{
		accResult("throughput", "sgd", thrErrs),
		accResult("tail-latency", "sgd", latErrs),
		accResult("power", "sgd", pwrErrs),
	}
}

// lcVariantRows returns the offline latency surfaces of the training
// variants (cached across calls through the perf models' determinism).
func lcVariantRows(k int) [][]float64 {
	pm, wm := perf.New(true), power.New(true)
	variants := workload.SyntheticLC(101, 12)
	rows := make([][]float64, len(variants))
	for i, v := range variants {
		lat, _ := sim.LCSurfaces(pm, wm, v, k, 0.8, uint64(i)+1, 0.3, 1.35)
		rows[i] = lat
	}
	return rows
}

// Fig5bColocation reproduces the runtime accuracy study (§VIII-B,
// Fig. 5b): CuttleSys runs on colocated mixes with noisy 1 ms
// profiling, and every applied configuration's prediction is compared
// against the measured steady-state value. Interference and phase
// noise widen the tails relative to Fig. 5a.
func Fig5bColocation(s Setup) ([]AccuracyResult, error) {
	s = s.withDefaults()
	errs := map[string][]float64{}
	for _, svc := range s.Services {
		for mix := 0; mix < s.MixesPerService; mix++ {
			seed := s.Seed + uint64(mix)*31 + 7
			m := machineFor(svc, seed, s.TrainSeed, true)
			rt := core.New(m, core.Params{Seed: seed, TrainSeed: s.TrainSeed, TrackAccuracy: true})
			if _, err := harness.Run(m, rt, s.Slices, harness.ConstantLoad(s.LoadFrac), harness.ConstantBudget(0.7)); err != nil {
				return nil, err
			}
			for metric, es := range rt.AccuracyErrors() {
				errs[metric] = append(errs[metric], es...)
			}
		}
	}
	var out []AccuracyResult
	for _, metric := range sortedKeys(errs) {
		out = append(out, accResult(metric, "sgd-runtime", errs[metric]))
	}
	return out, nil
}

// TrainSweepRow is one point of the §VIII-A2 training-set-size study.
type TrainSweepRow struct {
	NTrain  int
	MeanAbs float64 // mean absolute reconstruction error, percent
}

// TrainingSetSweep reproduces §VIII-A2: isolation-mode throughput
// reconstruction error as the number of offline-characterised
// applications varies. The paper reports ~20 % at 8, ~10 % at 16 and
// ~8 % at 24 training applications.
func TrainingSetSweep(seed uint64, sizes []int) []TrainSweepRow {
	if len(sizes) == 0 {
		sizes = []int{8, 16, 24}
	}
	pm, wm := perf.New(true), power.New(true)
	loIdx := config.Resource{Core: config.Narrowest, Cache: config.OneWay}.Index()
	hiIdx := config.Resource{Core: config.Widest, Cache: config.OneWay}.Index()
	var out []TrainSweepRow
	for _, n := range sizes {
		train, test := workload.SplitTrainTest(1, n)
		rows := len(train) + len(test)
		m := sgd.NewMatrix(rows, config.NumResources)
		truth := make([][]float64, rows)
		for i, app := range train {
			b, _ := sim.BatchSurfaces(pm, wm, app)
			truth[i] = b
			m.ObserveRow(i, b)
		}
		for k, app := range test {
			i := len(train) + k
			b, _ := sim.BatchSurfaces(pm, wm, app)
			truth[i] = b
			m.Observe(i, loIdx, b[loIdx])
			m.Observe(i, hiIdx, b[hiIdx])
		}
		pred := sgd.Reconstruct(m, accuracySGDParams(seed))
		var errs []float64
		for k := range test {
			i := len(train) + k
			for j := 0; j < config.NumResources; j++ {
				if j == loIdx || j == hiIdx {
					continue
				}
				errs = append(errs, math.Abs(stats.RelErrPct(pred.At(i, j), truth[i][j])))
			}
		}
		out = append(out, TrainSweepRow{NTrain: n, MeanAbs: stats.Mean(errs)})
	}
	return out
}

// Fig9RBFvsSGD reproduces the §VIII-E inference comparison (Fig. 9):
// Flicker's cubic-RBF surrogate given three samples versus
// PQ-reconstruction given two, predicting throughput and power across
// the 27 core configurations for every test application. Samples carry
// the same measurement noise in both cases; the RBF interpolant passes
// exactly through the noisy samples and extrapolates the noise
// cubically, which is how the paper's ±600 % outliers arise, while the
// regularised biased factorisation shrinks toward the training
// applications' structure.
func Fig9RBFvsSGD(seed uint64) []AccuracyResult {
	pm, wm := perf.New(true), power.New(true)
	noise := rng.New(seed ^ 0xfef1f0)
	const sampleNoise = 0.05
	train, test := workload.SplitTrainTest(1, 16)
	// Three samples = the first three rows of the 3MM3 plan, which all
	// sit at the lowest front-end level: the surrogate must extrapolate
	// the entire front-end dimension, exactly the regime where the
	// paper observed errors reaching ±600 %.
	rbfSamples := rbf.Design3MM3()[:3]

	// Core-config surfaces at one LLC way (Flicker has no cache
	// dimension).
	surface := func(app *workload.Profile) (bips, pwr []float64) {
		allB, allP := sim.BatchSurfaces(pm, wm, app)
		bips = make([]float64, config.NumCoreConfigs)
		pwr = make([]float64, config.NumCoreConfigs)
		for ci := range bips {
			j := config.Resource{Core: config.CoreByIndex(ci), Cache: config.OneWay}.Index()
			bips[ci], pwr[ci] = allB[j], allP[j]
		}
		return bips, pwr
	}

	errs := map[string][]float64{} // "method/metric"
	record := func(method, metric string, pred, truth []float64, skip map[int]bool) {
		for j := range truth {
			if skip[j] {
				continue
			}
			key := method + "/" + metric
			errs[key] = append(errs[key], stats.RelErrPct(pred[j], truth[j]))
		}
	}

	// SGD matrices over the 27-config domain.
	rows := len(train) + len(test)
	thrM := sgd.NewMatrix(rows, config.NumCoreConfigs)
	pwrM := sgd.NewMatrix(rows, config.NumCoreConfigs)
	loIdx, hiIdx := config.Narrowest.Index(), config.Widest.Index()
	truthT := make([][]float64, rows)
	truthP := make([][]float64, rows)
	for i, app := range train {
		b, p := surface(app)
		truthT[i], truthP[i] = b, p
		thrM.ObserveRow(i, b)
		pwrM.ObserveRow(i, p)
	}
	for k, app := range test {
		i := len(train) + k
		b, p := surface(app)
		truthT[i], truthP[i] = b, p
		thrM.Observe(i, loIdx, sim.Measure(noise, b[loIdx], sampleNoise))
		thrM.Observe(i, hiIdx, sim.Measure(noise, b[hiIdx], sampleNoise))
		pwrM.Observe(i, loIdx, sim.Measure(noise, p[loIdx], sampleNoise))
		pwrM.Observe(i, hiIdx, sim.Measure(noise, p[hiIdx], sampleNoise))
	}
	params := accuracySGDParams(seed)
	thrPred := sgd.Reconstruct(thrM, params)
	pwrPred := sgd.Reconstruct(pwrM, params)
	skipSGD := map[int]bool{loIdx: true, hiIdx: true}

	skipRBF := map[int]bool{}
	for _, c := range rbfSamples {
		skipRBF[c.Index()] = true
	}
	for k := range test {
		i := len(train) + k
		record("sgd", "throughput", thrPred.Row(i), truthT[i], skipSGD)
		record("sgd", "power", pwrPred.Row(i), truthP[i], skipSGD)

		// RBF with three samples (§VIII-E: unable to converge with two).
		for _, metric := range []string{"throughput", "power"} {
			truth := truthT[i]
			if metric == "power" {
				truth = truthP[i]
			}
			vals := make([]float64, len(rbfSamples))
			for s, c := range rbfSamples {
				vals[s] = sim.Measure(noise, truth[c.Index()], sampleNoise)
			}
			surrogate, err := rbf.Fit(rbfSamples, vals)
			if err != nil {
				continue
			}
			record("rbf", metric, surrogate.PredictAll(), truth, skipRBF)
		}
	}

	var out []AccuracyResult
	for _, key := range sortedKeys(errs) {
		method, metric := key[:3], key[4:]
		out = append(out, accResult(metric, method, errs[key]))
	}
	return out
}

// WriteAccuracy renders accuracy results as a table.
func WriteAccuracy(w io.Writer, results []AccuracyResult) {
	fmt.Fprintf(w, "%-14s %-12s %8s  %s\n", "metric", "method", "MAE(%)", "error distribution (%)")
	for _, r := range results {
		fmt.Fprintf(w, "%-14s %-12s %8.1f  %s\n", r.Metric, r.Method, r.MeanAbs, r.Box)
	}
}
