// Package harness drives scheduler-vs-machine experiments: it owns the
// decision-quantum loop of §IV-B (Fig. 3) — profile, decide, hold
// during scheduling overhead, run steady state, feed measurements back
// — plus the time-varying load and power-budget patterns of §VIII-D
// and the per-slice recording the evaluation figures are built from.
//
// Memory follows sim's rule: a PhaseResult or a scratch Allocation
// stays valid until its owner's next step, and a record owns what it
// keeps. The Driver owns the phase results it hands a scheduler (one
// per profiling window, since a validator and DecideMulti see them
// together) and a copy of the previous allocation for the hold; a
// scheduler owns the phases and the allocation it returns. A
// SliceRecord shares nothing with either, so a steady StepSlice
// allocates only the record's BatchInstrB.
package harness

import (
	"fmt"
	"math"

	"cuttlesys/internal/fault"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/stats"
	"cuttlesys/internal/workload"
)

// SliceDur is the paper's decision quantum: 100 ms (§IV-B).
const SliceDur = 0.1

// Phase pairs an allocation with a duration inside one timeslice.
type Phase struct {
	Dur   float64
	Alloc sim.Allocation
}

// Scheduler is a per-timeslice resource manager. The driver calls
// ProfilePhasesMulti, executes the phases, hands the results to
// DecideMulti, holds the previous allocation for the returned
// overhead, runs the decided allocation for the remainder of the slice
// and reports it back via EndSliceMulti. qps carries one offered load
// per latency-critical service, primary first (the paper's §VII-A
// generalisation); it is empty on a batch-only machine.
//
// The phases and the allocation a scheduler returns may be its own
// storage, reused from call to call: the driver reads them and never
// writes them, and copies what it needs past the scheduler's next
// call. The PhaseResults and qps it is handed are the driver's, valid
// only during the call.
type Scheduler interface {
	// Name identifies the policy in experiment output.
	Name() string
	// ProfilePhasesMulti returns the measurement phases to execute at
	// the head of the slice; may be empty for policies that do not
	// profile.
	ProfilePhasesMulti(qps []float64, budgetW float64) []Phase
	// DecideMulti consumes the profiling results and returns the steady
	// allocation plus the scheduling compute overhead (seconds, finite
	// and non-negative) to charge before it takes effect.
	DecideMulti(profile []sim.PhaseResult, qps []float64, budgetW float64) (sim.Allocation, float64)
	// EndSliceMulti receives the steady-state result for feedback
	// (matrix updates, QoS tracking, relocation decisions).
	EndSliceMulti(steady sim.PhaseResult, qps []float64)
}

// MultiScheduler is the name Scheduler had while a single-service
// contract existed beside it.
//
// Deprecated: declared only because bench/ (frozen by BENCHMARK.json)
// names it; use Scheduler.
type MultiScheduler = Scheduler

// ProfileValidator is an optional scheduler extension: a scheduler
// that can tell corrupt profiling telemetry from clean gets its
// profile phases re-executed (consuming real slice time) up to
// MaxProfileRetries times before the last sample set is handed to
// DecideMulti regardless.
type ProfileValidator interface {
	ValidateProfile(profile []sim.PhaseResult) error
}

// MaxProfileRetries bounds in-slice profiling re-sampling when a
// ProfileValidator rejects the samples. Each retry burns another
// profiling window of the slice, so the bound keeps a persistently
// corrupt sensor from consuming the whole quantum. Retries also stop
// once another re-profile would push the slice past half its quantum:
// a scheduler whose profile phases are long degrades to a truncated
// profile plus a normal steady phase instead of profiling burning the
// whole slice (and overrunning the clock grid).
const MaxProfileRetries = 2

// FixedOverhead was the scheduler extension decide/hold pipelining
// required; the driver no longer looks for it.
//
// Deprecated: declared only because bench/ (frozen by BENCHMARK.json)
// asserts it on its runtime decorator; delete with that assertion.
type FixedOverhead interface {
	DecisionOverheadSec() float64
}

// DegradedReporter is an optional scheduler extension reporting
// whether the scheduler spent the just-ended slice in a degraded
// (safe-fallback) mode; the harness records it per slice.
type DegradedReporter interface {
	Degraded() bool
}

// FaultInjector is the fault surface Run drives, fault.Injector:
// hardware faults, environmental perturbations and corruption of the
// scheduler's telemetry view.
type FaultInjector = fault.Injector

// LoadPattern yields the LC service's offered load fraction (of max
// QPS) at a simulation time.
type LoadPattern func(t float64) float64

// ConstantLoad offers a fixed load fraction.
func ConstantLoad(frac float64) LoadPattern {
	return func(float64) float64 { return frac }
}

// DiurnalLoad models the §VIII-D1 experiment: a smooth day/night swing
// between lo and hi load fractions with the given period (seconds).
func DiurnalLoad(lo, hi, period float64) LoadPattern {
	return func(t float64) float64 {
		phase := (1 - math.Cos(2*math.Pi*t/period)) / 2 // 0→1→0
		return lo + (hi-lo)*phase
	}
}

// StepLoad jumps from lo to hi during [from, to) — the load spike of
// the §VIII-D3 core-relocation experiment.
func StepLoad(lo, hi, from, to float64) LoadPattern {
	return func(t float64) float64 {
		if t >= from && t < to {
			return hi
		}
		return lo
	}
}

// Modulated multiplies a per-quantum factor table onto a base
// pattern: sample k covers times nearest k·quantum, clamped to the
// table, so a precomputed stochastic or trace-replay factor sequence
// becomes a pure function of simulated time. Rounding (not flooring)
// the quantum index keeps the lookup robust to the accumulated float
// error of a clock advanced by repeated quantum additions. An empty
// table leaves the base pattern unchanged.
func Modulated(base LoadPattern, factors []float64, quantum float64) LoadPattern {
	if len(factors) == 0 {
		return base
	}
	return func(t float64) float64 {
		k := int(math.Round(t / quantum))
		if k < 0 {
			k = 0
		} else if k >= len(factors) {
			k = len(factors) - 1
		}
		return base(t) * factors[k]
	}
}

// BudgetPattern yields the power budget (fraction of the machine's
// reference max power) at a simulation time.
type BudgetPattern func(t float64) float64

// ConstantBudget caps power at a fixed fraction.
func ConstantBudget(frac float64) BudgetPattern {
	return func(float64) float64 { return frac }
}

// StepBudget uses lo during [from, to) and hi elsewhere — the §VIII-D2
// power-budget step (90% → 60% → 90%).
func StepBudget(hi, lo, from, to float64) BudgetPattern {
	return func(t float64) float64 {
		if t >= from && t < to {
			return lo
		}
		return hi
	}
}

// SliceRecord captures one timeslice of an experiment.
type SliceRecord struct {
	T        float64 // slice start time, seconds
	LoadFrac float64
	QPS      float64
	BudgetW  float64

	P99Ms    float64 // LC tail latency over the slice, ms (0 if no LC)
	QoSMs    float64 // QoS target, ms
	Violated bool    // QoS violated this slice

	// Per-extra-service tail latency (multi-service machines).
	ExtraP99Ms    []float64
	ExtraQoSMs    []float64
	ExtraViolated []bool
	ExtraLCCores  []int
	ExtraLCCfg    []string

	BatchInstrB []float64 // per-job instructions executed, billions
	TotalInstrB float64
	GmeanBIPS   float64 // geometric mean of per-job throughput

	AvgPowerW   float64
	OverBudget  bool
	LCCores     int
	LCCoreCfg   string // chosen LC core config, e.g. "{6,2,6}"
	LCCacheWays float64

	// OverheadSec is the scheduling compute the scheduler charged for
	// this slice's decision, whether or not the hold phase fit.
	OverheadSec float64

	// Resilience telemetry (zero-valued on fault-free runs).
	FaultKinds     []string // fault kinds active this slice, nil if none
	FailedCores    int      // fail-stopped cores observed in steady state
	Degraded       bool     // scheduler ran in safe-fallback mode
	ProfileRetries int      // in-slice profiling retries this slice
}

// Result aggregates an experiment run.
type Result struct {
	Scheduler string
	Slices    []SliceRecord
}

// TotalInstrB sums batch instructions over the whole run — the §VII-B
// comparison metric ("total useful work executed over the same time").
func (r *Result) TotalInstrB() float64 {
	total := 0.0
	for _, s := range r.Slices {
		total += s.TotalInstrB
	}
	return total
}

// QoSViolations counts slices in which any service's p99 exceeded its
// target.
func (r *Result) QoSViolations() int {
	n := 0
	for i := range r.Slices {
		if r.Slices[i].anyViolated() {
			n++
		}
	}
	return n
}

// MeanGmeanBIPS averages the per-slice geometric-mean batch throughput.
func (r *Result) MeanGmeanBIPS() float64 {
	vals := make([]float64, 0, len(r.Slices))
	for _, s := range r.Slices {
		vals = append(vals, s.GmeanBIPS)
	}
	return stats.Mean(vals)
}

// WorstP99Ratio returns the maximum p99/QoS ratio across slices.
func (r *Result) WorstP99Ratio() float64 {
	worst := 0.0
	for _, s := range r.Slices {
		if s.QoSMs > 0 {
			if ratio := s.P99Ms / s.QoSMs; ratio > worst {
				worst = ratio
			}
		}
	}
	return worst
}

// BudgetViolations counts slices whose average power exceeded budget
// by more than tolFrac.
func (r *Result) BudgetViolations(tolFrac float64) int {
	n := 0
	for _, s := range r.Slices {
		if s.AvgPowerW > s.BudgetW*(1+tolFrac) {
			n++
		}
	}
	return n
}

func (s *SliceRecord) anyViolated() bool {
	if s.Violated {
		return true
	}
	for _, v := range s.ExtraViolated {
		if v {
			return true
		}
	}
	return false
}

func (s *SliceRecord) faultActive() bool {
	return len(s.FaultKinds) > 0 || s.FailedCores > 0
}

// RecoverySlices is the QoS-violation recovery time: the length of the
// longest run of consecutive violated slices that started while a
// fault was active. A violation chain that outlives its fault still
// counts in full — that tail is exactly the recovery the metric
// measures. Zero means every fault was absorbed without a violation.
func (r *Result) RecoverySlices() int {
	longest, cur := 0, 0
	inChain := false
	for i := range r.Slices {
		s := &r.Slices[i]
		switch {
		case s.anyViolated() && (s.faultActive() || inChain):
			if !inChain {
				inChain = true
				cur = 0
			}
			cur++
			if cur > longest {
				longest = cur
			}
		case !s.anyViolated():
			inChain = false
			cur = 0
		}
	}
	return longest
}

// FaultAttributedViolations counts violated slices attributable to a
// fault: the fault was active during the slice, or the slice continues
// an unbroken violation chain that began under one.
func (r *Result) FaultAttributedViolations() int {
	n := 0
	inChain := false
	for i := range r.Slices {
		s := &r.Slices[i]
		switch {
		case s.anyViolated() && (s.faultActive() || inChain):
			inChain = true
			n++
		case !s.anyViolated():
			inChain = false
		}
	}
	return n
}

// DegradedOccupancy is the fraction of slices the scheduler spent in
// its safe-fallback (degraded) mode — time not spent optimising.
func (r *Result) DegradedOccupancy() float64 {
	if len(r.Slices) == 0 {
		return 0
	}
	n := 0
	for i := range r.Slices {
		if r.Slices[i].Degraded {
			n++
		}
	}
	return float64(n) / float64(len(r.Slices))
}

// Single returns s unchanged.
//
// Deprecated: it lifted the single-service contract into the
// multi-service one; declared only because bench/ (frozen by
// BENCHMARK.json) still calls it.
func Single(s Scheduler) Scheduler { return s }

// Run executes slices timeslices of the scheduler against the machine,
// the one run loop. loads holds one pattern per latency-critical
// service, primary first; loads and budget (a fraction of the machine's
// reference MaxPowerW) are sampled at each slice start. A non-nil inj
// perturbs the run: hardware faults reach the machine, flash crowds and
// budget drops the environment, and telemetry corruption only the
// scheduler's view of each phase, the records keeping the physical
// truth. A non-nil c traces the run (Driver.SetCollector). A nil or
// empty injector and a nil collector reproduce the plain run bit for
// bit. Invalid setups — a non-positive slice count, fewer load patterns
// than services, a scheduler emitting a bad profile phase, allocation
// or overhead — return an error, not a partial result.
func Run(m *sim.Machine, s Scheduler, slices int, loads []LoadPattern, budget BudgetPattern, inj FaultInjector, c obs.Collector) (*Result, error) {
	if slices <= 0 {
		return nil, fmt.Errorf("harness: non-positive slice count %d", slices)
	}
	if budget == nil {
		return nil, fmt.Errorf("harness: nil budget pattern")
	}
	d, err := NewDriver(m, s, inj)
	if err != nil {
		return nil, err
	}
	defer d.Detach()
	if c != nil {
		d.SetCollector(c)
	}
	nServices := len(d.services)
	if len(loads) < nServices {
		return nil, fmt.Errorf("harness: %d load patterns for %d services", len(loads), nServices)
	}
	for i, load := range loads[:nServices] {
		if load == nil {
			return nil, fmt.Errorf("harness: load pattern %d is nil", i)
		}
	}
	maxPower := m.MaxPowerW()
	res := &Result{Scheduler: s.Name()}

	for sl := 0; sl < slices; sl++ {
		t := m.Now()
		loadFrac := 0.0
		qps := make([]float64, nServices)
		loadFactor, budgetFactor := 1.0, 1.0
		if inj != nil {
			loadFactor = inj.LoadFactor(t)
			budgetFactor = inj.BudgetFactor(t)
		}
		// The factor multiplies after the capacity, as a fleet applies a
		// node's flash crowd to its routed share.
		for k, app := range d.services {
			frac := loads[k](t)
			if k == 0 {
				loadFrac = frac * loadFactor
			}
			qps[k] = frac * app.MaxQPS * loadFactor
		}
		budgetW := budget(t) * maxPower * budgetFactor

		rec, err := d.StepSlice(qps, loadFrac, budgetW)
		if err != nil {
			return nil, err
		}
		res.Slices = append(res.Slices, rec)
	}
	return res, nil
}

// A Driver steps one (machine, scheduler) pair a decision quantum at a
// time: the profile → decide → hold → steady sequence of §IV-B (Fig. 3)
// factored out of Run so callers that interleave many machines —
// internal/fleet's cluster stepping — reuse the exact slice semantics
// per machine. The Driver owns the cross-slice state Run used to keep
// in its loop (the previous allocation held during scheduling
// overhead) plus the optional fault injector, which it attaches to the
// machine for its lifetime.
type Driver struct {
	m         *sim.Machine
	s         Scheduler
	inj       FaultInjector
	validator ProfileValidator
	reporter  DegradedReporter
	services  []*workload.Profile // the machine's, primary first

	// prev is the previous slice's decided allocation, which the hold
	// phase runs while the scheduler decides (hasPrev once a slice has
	// completed). Its contents are copied into the driver's own
	// storage: a scheduler may reuse the allocation it returns.
	prev    sim.Allocation
	hasPrev bool

	// Per-slice scratch, valid until the next StepSlice. prof holds one
	// result per profiling window, all alive at once (ValidateProfile
	// and DecideMulti receive them together), and seen is the
	// scheduler's view of them; phase holds the hold and then the steady
	// result; bips accumulates per-job BIPS·seconds.
	prof  []sim.PhaseResult
	seen  []sim.PhaseResult
	phase sim.PhaseResult
	bips  []float64

	// soj accumulates the slice's sojourn times, one buffer per service:
	// the machine appends each phase's straight into them
	// (sim.Machine.RunMultiAppend), and each phase result's
	// LC[k].Sojourns is a window of soj[k]. They are reused across slices
	// (a slice's worth is tens of KB per service), so nothing may keep a
	// window past the percentile read that ends StepSlice, which is free
	// to permute them.
	soj [][]float64

	// lastBuilds/lastLookups hold the previous slice's surface-table
	// counters so emitSliceTelemetry can emit per-slice deltas as
	// monotone obs counters.
	lastBuilds, lastLookups uint64

	// Observability: obs is the machine-level collector (Nop unless
	// SetCollector attached one), scope the slice-positioned view the
	// scheduler shares, sliceIdx the driver-local quantum counter
	// stamped onto events.
	obs      obs.Collector
	scope    *obs.Scope
	sliceIdx int
}

// NewDriver validates the pair and attaches inj (which may be nil) to
// the machine. Callers that keep the machine beyond the driver's life
// should call Detach when done so the injector does not outlive them.
func NewDriver(m *sim.Machine, s Scheduler, inj FaultInjector) (*Driver, error) {
	if m == nil {
		return nil, fmt.Errorf("harness: nil machine")
	}
	if s == nil {
		return nil, fmt.Errorf("harness: nil scheduler")
	}
	if inj != nil {
		m.SetInjector(inj)
	}
	services := m.Services()
	d := &Driver{m: m, s: s, inj: inj, services: services,
		soj: make([][]float64, len(services)), bips: make([]float64, len(m.Batch()))}
	d.obs = obs.Nop
	d.scope = obs.NewScope(nil)
	d.validator, _ = s.(ProfileValidator)
	d.reporter, _ = s.(DegradedReporter)
	return d, nil
}

// Machine returns the driven machine.
func (d *Driver) Machine() *sim.Machine { return d.m }

// Scheduler returns the driven scheduler.
func (d *Driver) Scheduler() Scheduler { return d.s }

// Detach removes the driver's fault injector from the machine.
func (d *Driver) Detach() {
	if d.inj != nil {
		d.m.SetInjector(nil)
	}
}

// StepSlice executes one decision quantum. qps carries one offered
// load per latency-critical service (primary first), already including
// any environmental perturbation; loadFrac is the primary service's
// offered fraction of its max QPS (recorded, not recomputed, so
// callers control the exact value); budgetW is the slice's power
// budget in watts. The machine's clock supplies the slice start time.
// A NaN or infinite qps entry, loadFrac or budgetW is an error before
// any phase runs. The PhaseResults handed to the scheduler are the
// driver's, valid until the next StepSlice; the returned record owns
// everything it holds.
func (d *Driver) StepSlice(qps []float64, loadFrac, budgetW float64) (SliceRecord, error) {
	m, s, inj := d.m, d.s, d.inj
	if len(qps) < len(d.services) {
		return SliceRecord{}, fmt.Errorf("harness: %d offered loads for %d services", len(qps), len(d.services))
	}
	for k, v := range qps {
		if !isFinite(v) {
			return SliceRecord{}, fmt.Errorf("harness: offered load %d is %v queries/s", k, v)
		}
	}
	if !isFinite(loadFrac) {
		return SliceRecord{}, fmt.Errorf("harness: load fraction is %v", loadFrac)
	}
	if !isFinite(budgetW) {
		return SliceRecord{}, fmt.Errorf("harness: power budget is %v W", budgetW)
	}
	t := m.Now()
	traced := d.obs.Enabled()
	d.scope.SetContext(t, d.sliceIdx)
	sliceWall := obs.BeginWall(d.obs)
	qosMs := 0.0
	if m.LC() != nil {
		qosMs = m.LC().QoSTargetMs
	}

	rec := SliceRecord{T: t, LoadFrac: loadFrac, QoSMs: qosMs, BudgetW: budgetW}
	if len(qps) > 0 {
		rec.QPS = qps[0]
	}
	if inj != nil {
		rec.FaultKinds = inj.ActiveKinds(t)
	}

	run := func(res *sim.PhaseResult, alloc *sim.Allocation, dur float64) {
		m.RunMultiInto(res, alloc, dur, qps, d.soj)
	}
	// observe yields the scheduler's view of a phase result — the
	// physical truth unless a telemetry fault is active.
	observe := func(t float64, pr sim.PhaseResult, profiling bool) sim.PhaseResult {
		if inj == nil {
			return pr
		}
		return inj.ObservePhase(t, pr, profiling)
	}

	for k := range d.soj {
		d.soj[k] = d.soj[k][:0]
	}
	var (
		energyJ float64
		elapsed float64
	)
	nBatch := len(m.Batch())
	// The record keeps instrB; bipsAccum is the driver's.
	instrB := make([]float64, nBatch)
	bipsAccum := d.bips
	clear(bipsAccum)

	accumulate := func(pr *sim.PhaseResult) {
		energyJ += pr.PowerW * pr.Dur
		elapsed += pr.Dur
		for i := range instrB {
			instrB[i] += pr.BatchInstrB[i]
			bipsAccum[i] += pr.BatchBIPS[i] * pr.Dur
		}
	}

	// 1. Profiling phases, checked before any runs. A ProfileValidator
	// scheduler gets corrupt samples re-taken (bounded, and each retry
	// consumes slice time).
	profPhases := s.ProfilePhasesMulti(qps, budgetW)
	profDur := 0.0
	for _, ph := range profPhases {
		if !(ph.Dur > 0) || math.IsInf(ph.Dur, 1) {
			return SliceRecord{}, fmt.Errorf("harness: %s: profile phase with non-positive duration %v",
				s.Name(), ph.Dur)
		}
		if err := m.ValidateAllocation(&ph.Alloc); err != nil {
			return SliceRecord{}, fmt.Errorf("harness: %s: profile phase: %w", s.Name(), err)
		}
		profDur += ph.Dur
	}
	for len(d.prof) < len(profPhases) {
		d.prof = append(d.prof, sim.PhaseResult{})
	}
	var profResults []sim.PhaseResult
	for attempt := 0; ; attempt++ {
		profResults = d.seen[:0]
		for wi := range profPhases {
			ph, pr := &profPhases[wi], &d.prof[wi]
			winT := t + elapsed
			run(pr, &ph.Alloc, ph.Dur)
			profResults = append(profResults, observe(t, *pr, true))
			accumulate(pr)
			if traced {
				d.scope.Emit(obs.Span(obs.SpanProfile, winT, ph.Dur).
					With("window", obs.Itoa(wi)).With("attempt", obs.Itoa(attempt)))
			}
		}
		d.seen = profResults
		if len(profPhases) == 0 || d.validator == nil ||
			attempt >= MaxProfileRetries || d.validator.ValidateProfile(profResults) == nil {
			rec.ProfileRetries = attempt
			break
		}
		// Graceful exhaustion: another full re-profile must not push the
		// slice past half its quantum — the decision and steady phase
		// still have to run on the normal clock grid. The last (corrupt)
		// sample set stands.
		if elapsed+profDur > SliceDur/2 {
			rec.ProfileRetries = attempt
			break
		}
	}

	// 2+3. Decision, and the scheduling-overhead hold: the machine
	// keeps running under the previous allocation while the runtime
	// computes.
	decideWall := obs.BeginWall(d.obs)
	alloc, overhead := s.DecideMulti(profResults, qps, budgetW)
	decideWall.End(d.obs, "harness.decide")
	if err := m.ValidateAllocation(&alloc); err != nil {
		return SliceRecord{}, fmt.Errorf("harness: %s: decided allocation: %w", s.Name(), err)
	}
	if !(overhead >= 0) || math.IsInf(overhead, 1) {
		return SliceRecord{}, fmt.Errorf("harness: %s: decision overhead %v is not finite and non-negative",
			s.Name(), overhead)
	}
	d.chargeOverhead(&rec, t+elapsed, overhead)
	if overhead > 0 && elapsed+overhead < SliceDur {
		hold := &alloc
		if d.hasPrev {
			hold = &d.prev
		}
		holdT := t + elapsed
		run(&d.phase, hold, overhead)
		accumulate(&d.phase)
		if traced {
			d.scope.Emit(obs.Span(obs.SpanHold, holdT, overhead))
		}
	}

	// 4. Steady state for the remainder of the slice.
	if remain := SliceDur - elapsed; remain > 1e-9 {
		steadyT := t + elapsed
		steady := &d.phase
		run(steady, &alloc, remain)
		if traced {
			d.scope.Emit(obs.Span(obs.SpanSteady, steadyT, remain))
		}
		accumulate(steady)
		rec.FailedCores = steady.FailedLC + steady.FailedBatch
		s.EndSliceMulti(observe(t, *steady, false), qps)
	} else {
		// Degenerate: profiling consumed the slice (Flicker mode a).
		s.EndSliceMulti(sim.PhaseResult{Dur: 0, BatchBIPS: make([]float64, nBatch), BatchInstrB: make([]float64, nBatch)}, qps)
	}
	if d.reporter != nil {
		rec.Degraded = d.reporter.Degraded()
	}
	d.keepPrev(&alloc)

	// Record.
	for k, app := range d.services {
		p99 := stats.PercentileInPlace(d.soj[k], 0.99) * 1e3
		if k == 0 {
			rec.P99Ms = p99
			rec.Violated = qosMs > 0 && qosMissed(p99, qosMs)
			continue
		}
		rec.ExtraP99Ms = append(rec.ExtraP99Ms, p99)
		rec.ExtraQoSMs = append(rec.ExtraQoSMs, app.QoSTargetMs)
		rec.ExtraViolated = append(rec.ExtraViolated, qosMissed(p99, app.QoSTargetMs))
		rec.ExtraLCCores = append(rec.ExtraLCCores, alloc.Service(k).Cores)
		rec.ExtraLCCfg = append(rec.ExtraLCCfg, alloc.Service(k).Core.String())
	}
	rec.BatchInstrB = instrB
	rec.TotalInstrB = stats.Sum(instrB)
	for i := range bipsAccum {
		bipsAccum[i] /= SliceDur // each job's mean BIPS over the slice
	}
	rec.GmeanBIPS = stats.GeoMean(bipsAccum)
	rec.AvgPowerW = energyJ / elapsed
	rec.OverBudget = rec.AvgPowerW > budgetW
	rec.LCCores = alloc.LCCores
	rec.LCCoreCfg = alloc.LCCore.String()
	rec.LCCacheWays = alloc.LCCache.Ways()
	if traced {
		d.emitSliceTelemetry(&rec)
	}
	sliceWall.End(d.obs, "harness.slice")
	d.sliceIdx++
	return rec, nil
}

// keepPrev copies alloc into d.prev, reusing d.prev's storage.
func (d *Driver) keepPrev(alloc *sim.Allocation) {
	batch, extra := d.prev.Batch, d.prev.ExtraLC
	d.prev = *alloc
	d.prev.Batch = append(batch[:0], alloc.Batch...)
	d.prev.ExtraLC = append(extra[:0], alloc.ExtraLC...)
	d.hasPrev = true
}

// isFinite reports whether v is neither NaN nor infinite.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// qosMissed reports whether a slice's tail latency failed its target.
// It is written as "not met" rather than "exceeded" so that a NaN tail
// — stats.Percentile's answer to a NaN sojourn — counts as a miss.
func qosMissed(p99Ms, qosMs float64) bool { return !(p99Ms <= qosMs) }

// String summarises a result for quick inspection.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %d slices, %.1f Binstr, %d QoS violations, worst p99/QoS %.2f",
		r.Scheduler, len(r.Slices), r.TotalInstrB(), r.QoSViolations(), r.WorstP99Ratio())
}
