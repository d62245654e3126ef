package experiments

import (
	"fmt"
	"io"
	"math"

	"cuttlesys/internal/config"
	"cuttlesys/internal/core"
	"cuttlesys/internal/dds"
	"cuttlesys/internal/ga"
	"cuttlesys/internal/perf"
	"cuttlesys/internal/power"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// ExplorePoint is one evaluated candidate in the Fig. 10a space:
// predicted chip power versus inverse throughput (the paper's axes).
type ExplorePoint struct {
	PowerW    float64
	InvThr    float64 // 1 / gmean BIPS
	Objective float64
	IsBestDDS bool
	IsBestGA  bool
	FromDDS   bool
}

// Fig10aExploration reproduces Fig. 10a: the points DDS and GA explore
// for one mix under one power budget, in the power / (1/throughput)
// plane. Both searchers optimise the same SGD-free oracle objective
// (true models) so the comparison isolates exploration quality; DDS
// should place more points on the pareto frontier and end at a better
// point under the budget line.
func Fig10aExploration(seed uint64, capFrac float64) (points []ExplorePoint, budgetW float64) {
	if capFrac == 0 {
		capFrac = 0.7
	}
	pm, wm := perf.New(true), power.New(true)
	_, pool := workload.SplitTrainTest(core.SplitSeed, core.NTrainBatch)
	batch := workload.Mix(seed+7, pool, 16)

	// Two accumulators per job and configuration: log-throughput and
	// power. The score is the geometric-mean throughput less twice the
	// power overshoot.
	n := float64(len(batch))
	fixed := power.FixedChipW
	obj := &dds.SeparableObjective{K: 2, Base: []float64{0, fixed}, Terms: make([][]float64, len(batch))}
	maxPower := 0.0
	for i, app := range batch {
		thr, pwr := sim.BatchSurfaces(pm, wm, app)
		t := make([]float64, 2*config.NumResources)
		for j := range thr {
			t[2*j] = math.Log(math.Max(thr[j], 1e-9))
			t[2*j+1] = pwr[j]
		}
		obj.Terms[i] = t
		maxPower += pwr[config.Resource{Core: config.Widest, Cache: config.FourWays}.Index()]
	}
	budgetW = capFrac * (maxPower + fixed)
	obj.Finish = func(acc []float64) float64 {
		g := math.Exp(acc[0] / n)
		if over := acc[1] - budgetW; over > 0 {
			g -= 2 * over
		}
		return g
	}
	eval := func(x []int) (gmean, chipPower float64) {
		logSum := 0.0
		chipPower = fixed
		for i, j := range x {
			logSum += obj.Terms[i][2*j]
			chipPower += obj.Terms[i][2*j+1]
		}
		return math.Exp(logSum / n), chipPower
	}

	collect := func(pts []dds.Point, fromDDS bool, bestVal float64) {
		for _, pt := range pts {
			g, p := eval(pt.X)
			points = append(points, ExplorePoint{
				PowerW:    p,
				InvThr:    1 / math.Max(g, 1e-9),
				Objective: pt.Val,
				FromDDS:   fromDDS,
				IsBestDDS: fromDDS && pt.Val == bestVal,
				IsBestGA:  !fromDDS && pt.Val == bestVal,
			})
		}
	}

	dres := dds.SearchSeparable(obj, dds.Params{
		Dims: len(batch), NumConfigs: config.NumResources,
		Seed: seed, Workers: 4, Record: true,
	})
	collect(dres.Points, true, dres.BestVal)

	gres := ga.Search(ga.Objective(obj.Func()), ga.Params{
		Dims: len(batch), NumConfigs: config.NumResources,
		Seed: seed, Record: true,
	})
	gaPts := make([]dds.Point, len(gres.Points))
	for i, p := range gres.Points {
		gaPts[i] = dds.Point{X: p.X, Val: p.Val}
	}
	collect(gaPts, false, gres.BestVal)
	return points, budgetW
}

// BestUnderBudget returns the best feasible throughput (gmean BIPS)
// found by each searcher — the stars of Fig. 10a.
func BestUnderBudget(points []ExplorePoint, budgetW float64) (ddsBest, gaBest float64) {
	for _, p := range points {
		if p.PowerW > budgetW {
			continue
		}
		thr := 1 / p.InvThr
		if p.FromDDS && thr > ddsBest {
			ddsBest = thr
		}
		if !p.FromDDS && thr > gaBest {
			gaBest = thr
		}
	}
	return ddsBest, gaBest
}

// WriteFig10a summarises the exploration comparison.
func WriteFig10a(w io.Writer, points []ExplorePoint, budgetW float64) {
	nd, ng := 0, 0
	for _, p := range points {
		if p.FromDDS {
			nd++
		} else {
			ng++
		}
	}
	d, g := BestUnderBudget(points, budgetW)
	fmt.Fprintf(w, "budget %.1f W; DDS explored %d points, GA %d\n", budgetW, nd, ng)
	fmt.Fprintf(w, "best feasible gmean BIPS: DDS %.3f, GA %.3f (DDS/GA = %.3f)\n", d, g, d/g)
}
