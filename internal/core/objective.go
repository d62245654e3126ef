package core

import (
	"math"

	"cuttlesys/internal/config"
	"cuttlesys/internal/dds"
	"cuttlesys/internal/power"
	"cuttlesys/internal/sgd"
)

// The batch objective (§VI-A) — geometric-mean predicted batch
// throughput with soft penalties on power and cache violations — is
// separable: it folds per-job contributions into four running
// accumulators — log-throughput sum, power draw, cache ways, half-way
// count — and applies the geometric mean and soft penalties at the end.
// (The paper's printed objective penalises slack rather than violation
// — an obvious typo; the intended max(0, violation) form is used, see
// DESIGN.md §1.) separableObjective precomputes every contribution once
// per decision quantum as a score table, so a DDS evaluation becomes
// pure table additions: no math.Log, no config.ResourceByIndex, no
// allocation on the eval path; the GA reads the same table through
// SeparableObjective.Func. It is the objective's only production form:
// the per-candidate closure it replaced lives in fastpath_test.go as
// the oracle, pinned bit-identical to the table.
const (
	accLogThr = 0 // Σ log(max(thr, 1e-9)) over batch jobs
	accPower  = 1 // fixed power + Σ per-job power
	accWays   = 2 // LC ways + Σ full-way allocations
	accHalves = 3 // count of half-way allocations (integer-valued)
	numAccums = 4
)

// waysTab and halfTab decode each resource index's cache allocation
// once, at package init: waysTab[j] is the full-way count (0 for a
// half-way config), halfTab[j] is 1 for a half-way config. Adding the
// 0.0 entries is bit-safe — no term is −0.0, so x + 0.0 == x exactly —
// which keeps the table fold identical to a conditional accumulation.
var (
	waysTab [config.NumResources]float64
	halfTab [config.NumResources]float64
)

func init() {
	for j := 0; j < config.NumResources; j++ {
		if c := config.ResourceByIndex(j).Cache; c.Index() == config.HalfWay.Index() {
			halfTab[j] = 1
		} else {
			waysTab[j] = c.Ways()
		}
	}
}

// separableObjective builds the batch objective's score table for the
// current slice. The tables are rebuilt every call (the predictions
// change each quantum) into scratch retained on the Runtime, so
// steady-state slices allocate only the Finish closure.
func (rt *Runtime) separableObjective(thr, pwr *sgd.Prediction, lcRes []config.Resource, budgetW float64) *dds.SeparableObjective {
	nBatch := len(rt.batch)
	fixedPower := power.LLCWayW*config.LLCWays + power.UncorePerCoreW*float64(rt.nCores)
	lcWays := 0.0
	lcHalf := 0
	for k, sv := range rt.svcs {
		fixedPower += float64(sv.cores) * sv.predPwr
		if lcRes[k].Cache.Index() == config.HalfWay.Index() {
			lcHalf++
		} else {
			lcWays += lcRes[k].Cache.Ways()
		}
	}

	if cap(rt.sepTerms) < nBatch {
		rt.sepTerms = make([][]float64, nBatch)
	}
	rt.sepTerms = rt.sepTerms[:nBatch]
	for i := 0; i < nBatch; i++ {
		if rt.sepTerms[i] == nil {
			rt.sepTerms[i] = make([]float64, config.NumResources*numAccums)
		}
		thrRow := thr.Row(rt.batchRow(i))
		pwrRow := pwr.Row(rt.batchRow(i))
		t := rt.sepTerms[i]
		for j := 0; j < config.NumResources; j++ {
			t[j*numAccums+accLogThr] = math.Log(math.Max(thrRow[j], 1e-9))
			t[j*numAccums+accPower] = pwrRow[j]
			t[j*numAccums+accWays] = waysTab[j]
			t[j*numAccums+accHalves] = halfTab[j]
		}
	}

	rt.sepBase = append(rt.sepBase[:0], 0, fixedPower, lcWays, float64(lcHalf))
	nBatchF := float64(nBatch)
	rt.sepObj = dds.SeparableObjective{
		K:     numAccums,
		Base:  rt.sepBase,
		Terms: rt.sepTerms,
		Finish: func(acc []float64) float64 {
			return finishObjective(acc, nBatchF, budgetW)
		},
	}
	return &rt.sepObj
}

// finishObjective folds the accumulator vector into the score:
// half-way rounding, geometric mean, power penalty, cache penalty — the
// operations, in order, of the closure oracle in fastpath_test.go.
//
//hot:path objective fold — pure arithmetic, no logs, no allocation
func finishObjective(acc []float64, nBatch, budgetW float64) float64 {
	ways := acc[accWays] + float64((int(acc[accHalves])+1)/2)
	//lint:allow floatsafe nBatch is the batch job count, ≥ 1 whenever a search runs
	obj := math.Exp(acc[accLogThr] / nBatch)
	if over := acc[accPower] - budgetW; over > 0 {
		obj -= penaltyPower * over
	}
	if over := ways - config.LLCWays; over > 0 {
		obj -= penaltyCache * over
	}
	return obj
}
