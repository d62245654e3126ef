package core

import (
	"math"

	"cuttlesys/internal/config"
	"cuttlesys/internal/dds"
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

// separableObjective builds the batch objective's score table for one
// decision, given the services' chosen configurations and core counts,
// into obj. The tables are rebuilt every call (the predictions change
// each quantum) into obj's storage, which the caller retains across
// quanta, so steady-state slices allocate only the Finish closure.
func separableObjective(obj *dds.SeparableObjective, in *decision, svcs []svcChoice) {
	nBatch := in.nBatch
	lcWays := 0.0
	lcHalf := 0
	for _, s := range svcs {
		if s.res.Cache.Index() == config.HalfWay.Index() {
			lcHalf++
		} else {
			lcWays += s.res.Cache.Ways()
		}
	}

	if cap(obj.Terms) < nBatch {
		obj.Terms = make([][]float64, nBatch)
	}
	obj.Terms = obj.Terms[:nBatch]
	for i := 0; i < nBatch; i++ {
		if obj.Terms[i] == nil {
			obj.Terms[i] = make([]float64, config.NumResources*numAccums)
		}
		row := batchRow(i)
		t := obj.Terms[i]
		for j := 0; j < config.NumResources; j++ {
			t[j*numAccums+accLogThr] = math.Log(math.Max(in.thr.At(row, j), 1e-9))
			t[j*numAccums+accPower] = in.pwr.At(row, j)
			t[j*numAccums+accWays] = waysTab[j]
			t[j*numAccums+accHalves] = halfTab[j]
		}
	}

	obj.K = numAccums
	obj.Base = append(obj.Base[:0], 0, fixedPower(svcs), lcWays, float64(lcHalf))
	nBatchF, budgetW := float64(nBatch), in.budgetW
	obj.Finish = func(acc []float64) float64 {
		return finishObjective(acc, nBatchF, budgetW)
	}
}

// finishObjective folds the accumulator vector into the score:
// half-way rounding, geometric mean, power penalty, cache penalty — the
// operations, in order, of the closure oracle in fastpath_test.go.
//
//hot:path objective fold — pure arithmetic, no logs, no allocation
func finishObjective(acc []float64, nBatch, budgetW float64) float64 {
	ways := acc[accWays] + float64((int(acc[accHalves])+1)/2)
	// nBatch is the batch job count, ≥ 1 whenever a search runs, so this
	// guard keeps its bits (a branch, as in perf.foldIPC).
	if nBatch < 1 {
		nBatch = 1
	}
	obj := math.Exp(acc[accLogThr] / nBatch)
	if over := acc[accPower] - budgetW; over > 0 {
		obj -= penaltyPower * over
	}
	if over := ways - config.LLCWays; over > 0 {
		obj -= penaltyCache * over
	}
	return obj
}
