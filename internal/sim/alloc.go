// Package sim implements the 32-core machine simulator that stands in
// for the paper's zsim+McPAT testbed (DESIGN.md §1). It integrates the
// analytical performance model, the power model and the queueing
// simulator into a timeslice-level execution engine: given a resource
// allocation — per-job core configurations, LLC way allocations, gating
// decisions and the LC/batch core split — it computes the instructions
// each batch job executes, the latency-critical service's query
// sojourns, and the chip power, including the two interference channels
// the paper manages (LLC capacity and DRAM bandwidth).
//
// Memory has one rule: a PhaseResult or a scratch Allocation stays
// valid until its owner's next step, and a record owns what it keeps.
// The machine owns each phase's staged state and copies what a result
// reports out of it; RunMultiInto fills a result the caller owns, and
// RunMulti a fresh one. A steady machine-slice therefore allocates
// nothing here.
package sim

import (
	"fmt"

	"cuttlesys/internal/config"
)

// BatchAssign is one batch job's per-slice assignment.
type BatchAssign struct {
	Core  config.Core
	Cache config.CacheAlloc
	// Gated powers the job's core off for the slice (C6-like state):
	// the job executes nothing and the core draws only residual power.
	Gated bool
	// FreqGHz runs the core at a reduced clock (per-core DVFS, used by
	// the maxBIPS baseline on fixed cores); 0 selects the design's
	// nominal frequency.
	FreqGHz float64
}

// LCAssign is one latency-critical service's per-slice assignment (the
// paper's §VII-A generalisation claim). Service 0, the primary, is
// stored in Allocation's flat LCCores/LCCore/LCCache/LCHalfBlend
// fields and service k > 0 in ExtraLC[k-1]; Allocation.Service and
// SetService read and write either as an LCAssign.
type LCAssign struct {
	Cores int
	Core  config.Core
	Cache config.CacheAlloc
	// HalfBlend runs half the service's cores at Core and half at the
	// opposite extreme (profiling windows).
	HalfBlend bool
}

// Allocation is a complete machine assignment for one phase of
// execution. Each latency-critical service is load-balanced across its
// cores, which all share one configuration and one way allocation
// (§VI-A); each batch job has its own assignment.
//
// Cache allocations are arbitrary positive way counts at the machine
// level: CuttleSys restricts itself to the four canonical allocations
// (§VIII-A2), while the UCP-based baselines assign whole ways.
type Allocation struct {
	// LCCores is the number of cores serving the primary
	// latency-critical application. Zero is valid when no LC app is
	// present.
	LCCores int
	LCCore  config.Core
	LCCache config.CacheAlloc
	// LCFreqGHz runs the LC cores at a reduced clock; 0 = nominal.
	LCFreqGHz float64

	// ExtraLC assigns the machine's additional latency-critical
	// services (Spec.ExtraLCs), in order. Must have exactly one entry
	// per extra service.
	ExtraLC []LCAssign

	// Batch holds one assignment per batch job, in job order. Jobs may
	// outnumber the remaining cores (after core relocation to the LC
	// service), in which case they time-multiplex.
	Batch []BatchAssign

	// LCHalfBlend models the paper's profiling windows (§VIII-A1):
	// half the LC service's cores run LCCore and half the opposite
	// extreme ({2,2,2} when LCCore is the widest configuration and vice
	// versa), so queries load-balance across fast and slow cores and a
	// 1 ms sample does not stall the whole service.
	LCHalfBlend bool

	// NoPartition disables LLC way partitioning: all active
	// applications contend for the full 32 ways, with effective
	// occupancy proportional to their per-core capacity demand. Used by
	// the plain core-gating baseline (§VII-B).
	NoPartition bool
}

// Service returns service k's assignment, primary (k = 0) first; the
// zero LCAssign when the allocation has no service k.
func (a *Allocation) Service(k int) LCAssign {
	switch {
	case k == 0:
		return LCAssign{Cores: a.LCCores, Core: a.LCCore, Cache: a.LCCache, HalfBlend: a.LCHalfBlend}
	case k > 0 && k <= len(a.ExtraLC):
		return a.ExtraLC[k-1]
	}
	return LCAssign{}
}

// SetService sets service k's assignment, growing ExtraLC when k is
// past its end. LCFreqGHz, service 0's clock, is not part of an
// LCAssign and is left alone.
func (a *Allocation) SetService(k int, s LCAssign) {
	if k == 0 {
		a.LCCores, a.LCCore, a.LCCache, a.LCHalfBlend = s.Cores, s.Core, s.Cache, s.HalfBlend
		return
	}
	for len(a.ExtraLC) < k {
		a.ExtraLC = append(a.ExtraLC, LCAssign{})
	}
	a.ExtraLC[k-1] = s
}

// Validate checks structural invariants against a machine with
// config.NumMachineCore cores, nBatch batch jobs and an LC service
// when hasLC is true.
// Way-budget compliance is checked only under partitioning; without
// partitioning the hardware shares freely. Extra-service counts are
// checked by the machine (Machine.ValidateAllocation).
func (a *Allocation) Validate(nBatch int, hasLC bool) error {
	if len(a.Batch) != nBatch {
		return fmt.Errorf("sim: allocation has %d batch assignments, want %d", len(a.Batch), nBatch)
	}
	if hasLC {
		if a.LCCores <= 0 {
			return fmt.Errorf("sim: LC service present but allocated %d cores", a.LCCores)
		}
		if !a.LCCore.Valid() {
			return fmt.Errorf("sim: invalid LC core config %v", a.LCCore)
		}
		if a.LCCache <= 0 || a.LCCache > config.LLCWays {
			return fmt.Errorf("sim: invalid LC cache allocation %v", a.LCCache)
		}
	} else if a.LCCores != 0 {
		return fmt.Errorf("sim: no LC service but %d LC cores", a.LCCores)
	}
	totalLC := a.LCCores
	for i, e := range a.ExtraLC {
		if e.Cores <= 0 {
			return fmt.Errorf("sim: extra service %d allocated %d cores", i, e.Cores)
		}
		if !e.Core.Valid() {
			return fmt.Errorf("sim: extra service %d has invalid core config %v", i, e.Core)
		}
		if e.Cache <= 0 || e.Cache > config.LLCWays {
			return fmt.Errorf("sim: extra service %d has invalid cache allocation %v", i, e.Cache)
		}
		totalLC += e.Cores
	}
	if totalLC > config.NumMachineCore {
		return fmt.Errorf("sim: %d LC cores exceed the %d-core machine", totalLC, config.NumMachineCore)
	}
	for i, b := range a.Batch {
		if b.Gated {
			continue
		}
		if !b.Core.Valid() {
			return fmt.Errorf("sim: batch job %d has invalid core config %v", i, b.Core)
		}
		if b.Cache <= 0 || b.Cache > config.LLCWays {
			return fmt.Errorf("sim: batch job %d has invalid cache allocation %v", i, b.Cache)
		}
		if b.FreqGHz < 0 || b.FreqGHz > config.BaseFreqGHz {
			return fmt.Errorf("sim: batch job %d has invalid frequency %v GHz", i, b.FreqGHz)
		}
	}
	if a.LCFreqGHz < 0 || a.LCFreqGHz > config.BaseFreqGHz {
		return fmt.Errorf("sim: invalid LC frequency %v GHz", a.LCFreqGHz)
	}
	if !a.NoPartition {
		if ways := a.TotalWays(hasLC); ways > config.LLCWays+1e-9 {
			return fmt.Errorf("sim: allocation uses %.1f ways, budget is %d", ways, config.LLCWays)
		}
	}
	return nil
}

// TotalWays returns the LLC ways the allocation consumes under
// partitioning. Jobs at a half-way allocation pair up onto shared ways
// (§VIII-A2), so h half-way jobs consume ⌈h⌉/2 ways.
func (a *Allocation) TotalWays(hasLC bool) float64 {
	ways := 0.0
	halves := 0
	if hasLC && a.LCCores > 0 {
		if a.LCCache == config.HalfWay {
			halves++
		} else {
			ways += a.LCCache.Ways()
		}
	}
	for _, e := range a.ExtraLC {
		if e.Cache == config.HalfWay {
			halves++
		} else {
			ways += e.Cache.Ways()
		}
	}
	for _, b := range a.Batch {
		if b.Gated {
			continue
		}
		if b.Cache == config.HalfWay {
			halves++
		} else {
			ways += b.Cache.Ways()
		}
	}
	return ways + float64((halves+1)/2)
}

// batchCores returns the number of the machine's cores left to batch
// jobs.
func (a *Allocation) batchCores() int {
	n := config.NumMachineCore - a.LCCores
	for _, e := range a.ExtraLC {
		n -= e.Cores
	}
	return n
}

// activeBatch returns the number of non-gated batch jobs.
func (a *Allocation) activeBatch() int {
	n := 0
	for _, b := range a.Batch {
		if !b.Gated {
			n++
		}
	}
	return n
}

// MultiplexFactor returns the fraction of time each active batch job
// gets a core: 1 when cores are plentiful, cores/jobs when the LC
// service has reclaimed cores and batch jobs time-share (§VIII-D3).
func (a *Allocation) MultiplexFactor() float64 {
	active := a.activeBatch()
	if active == 0 {
		return 0
	}
	cores := a.batchCores()
	if cores >= active {
		return 1
	}
	if cores < 0 {
		return 0
	}
	return float64(cores) / float64(active)
}

// Uniform returns an allocation with every batch job at the same core
// configuration and cache allocation — the shape the no-gating
// reference and several baselines use.
func Uniform(nBatch int, hasLC bool, lcCores int, core config.Core, cache config.CacheAlloc) Allocation {
	var a Allocation
	a.SetUniform(nBatch, hasLC, lcCores, core, cache)
	return a
}

// SetUniform overwrites a with Uniform's allocation, reusing a.Batch's
// storage when it has the capacity — how a scheduler that owns its
// allocation rebuilds it each slice without allocating.
func (a *Allocation) SetUniform(nBatch int, hasLC bool, lcCores int, core config.Core, cache config.CacheAlloc) {
	batch := a.Batch
	if batch == nil || cap(batch) < nBatch {
		batch = make([]BatchAssign, nBatch)
	}
	*a = Allocation{Batch: batch[:nBatch]}
	if hasLC {
		a.LCCores = lcCores
		a.LCCore = core
		a.LCCache = cache
	}
	for i := range a.Batch {
		a.Batch[i] = BatchAssign{Core: core, Cache: cache}
	}
}
