// Package fault provides a deterministic, seedable fault schedule for
// the CuttleSys simulator and harness. A Schedule is the single source
// of truth for every injected failure mode:
//
//   - core fail-stop and fail-slow, delivered to sim.Machine through
//     the sim.Injector interface,
//   - profiling-sample corruption and dropout plus stale/garbage
//     steady-state telemetry, applied to the scheduler's view of each
//     sim.PhaseResult (the physical truth in the records is untouched),
//   - flash-crowd load spikes and step power-budget drops, which
//     perturb the environment itself (offered qps and budget).
//
// Every perturbation is a pure function of the slice time and the
// schedule's seed, so a fixed seed reproduces an identical run —
// byte-identical resilience reports (`cuttlesys report resilience`).
// An empty schedule is a guaranteed no-op: it draws no random numbers
// and returns its inputs unchanged, so harness.RunFaulted with an empty
// schedule matches harness.Run bit for bit.
package fault

import (
	"fmt"
	"math"
	"sort"

	"cuttlesys/internal/obs"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/sim"
)

// Kind names one failure mode.
type Kind string

const (
	// CoreFailStop fail-stops Cores LC cores and BatchCores batch
	// cores for the event's window.
	CoreFailStop Kind = "core-failstop"
	// CoreFailSlow de-rates core clocks: LC cores run at Factor ×
	// nominal frequency (BatchFactor for the batch pool; either may be
	// 1 for "unaffected").
	CoreFailSlow Kind = "core-failslow"
	// ProfileCorrupt perturbs profiling-phase telemetry: each batch
	// BIPS / power sample is, with probability Prob, either dropped
	// (zeroed) or multiplied by a garbage factor drawn in
	// [1/Magnitude, Magnitude].
	ProfileCorrupt Kind = "profile-corrupt"
	// TelemetryGarbage corrupts steady-state telemetry the same way —
	// the stale/garbage readings a divergence detector must survive.
	// With probability Prob a reading becomes NaN, negative, or wildly
	// scaled.
	TelemetryGarbage Kind = "telemetry-garbage"
	// FlashCrowd multiplies the offered load of every LC service by
	// Factor (> 1) for the window — a sudden crowd, not noise.
	FlashCrowd Kind = "flash-crowd"
	// BudgetDrop multiplies the power budget by Factor (< 1) for the
	// window — a step drop from, e.g., a datacenter-level cap.
	BudgetDrop Kind = "budget-drop"
)

// KindByName resolves a fault-kind name ("core-failstop", …) to its
// Kind. Scenario specs and other data-driven callers use it to turn
// declarative text into schedule events with validated kinds.
func KindByName(name string) (Kind, error) {
	switch k := Kind(name); k {
	case CoreFailStop, CoreFailSlow, ProfileCorrupt, TelemetryGarbage, FlashCrowd, BudgetDrop:
		return k, nil
	}
	return "", fmt.Errorf("fault: unknown kind %q", name)
}

// Event is one failure active over [Start, End) seconds of simulated
// time. Fields beyond Kind/Start/End are interpreted per Kind; zero
// values take that Kind's default.
type Event struct {
	Kind  Kind
	Start float64
	End   float64

	// Cores / BatchCores: fail-stopped LC / batch cores (CoreFailStop).
	Cores      int
	BatchCores int

	// Factor: frequency de-rating (CoreFailSlow, default 0.5), load
	// multiplier (FlashCrowd, default 3), or budget multiplier
	// (BudgetDrop, default 0.5).
	Factor float64
	// BatchFactor: batch-pool frequency de-rating (CoreFailSlow,
	// default = Factor).
	BatchFactor float64

	// Prob: per-sample corruption probability (ProfileCorrupt,
	// TelemetryGarbage; default 0.5).
	Prob float64
	// Magnitude: garbage scale bound (default 10): corrupted samples
	// are scaled by a factor in [1/Magnitude, Magnitude] or zeroed.
	Magnitude float64
}

// active reports whether the event covers time t.
func (e *Event) active(t float64) bool { return t >= e.Start && t < e.End }

func (e *Event) factor(def float64) float64 {
	if e.Factor > 0 {
		return e.Factor
	}
	return def
}

func (e *Event) prob() float64 {
	if e.Prob > 0 {
		return e.Prob
	}
	return 0.5
}

func (e *Event) magnitude() float64 {
	if e.Magnitude > 1 {
		return e.Magnitude
	}
	return 10
}

// Schedule is a deterministic fault schedule: a seed plus a list of
// timed events. It implements sim.Injector for hardware faults and the
// harness's fault hooks for everything else. The zero value (or an
// empty event list) injects nothing and perturbs nothing.
type Schedule struct {
	seed   uint64
	events []Event
	r      *rng.RNG

	// Observability (nil unless SetCollector attached one): c receives
	// inject/recover instants, state tracks which window transitions
	// have already been emitted.
	c     obs.Collector
	state []uint8
}

// NewSchedule builds a schedule from events. The same (seed, events)
// pair always produces the same perturbations. Events may overlap;
// their effects compose. Invalid windows (End <= Start) are rejected.
func NewSchedule(seed uint64, events ...Event) (*Schedule, error) {
	for i, e := range events {
		if e.End <= e.Start {
			return nil, fmt.Errorf("fault: event %d (%s) has empty window [%v, %v)",
				i, e.Kind, e.Start, e.End)
		}
		switch e.Kind {
		case CoreFailStop, CoreFailSlow, ProfileCorrupt, TelemetryGarbage, FlashCrowd, BudgetDrop:
		default:
			return nil, fmt.Errorf("fault: event %d has unknown kind %q", i, e.Kind)
		}
	}
	evs := make([]Event, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
	return &Schedule{seed: seed, events: evs, r: rng.New(seed)}, nil
}

// MustSchedule is NewSchedule panicking on error, for literal
// schedules in tests and scenario tables.
func MustSchedule(seed uint64, events ...Event) *Schedule {
	s, err := NewSchedule(seed, events...)
	if err != nil {
		panic(err)
	}
	return s
}

// Empty reports whether the schedule contains no events.
func (s *Schedule) Empty() bool { return s == nil || len(s.events) == 0 }

// Disrupt implements sim.Injector: the hardware fault state at time t.
func (s *Schedule) Disrupt(t float64) sim.Disruption {
	var d sim.Disruption
	if s == nil {
		return d
	}
	for i := range s.events {
		e := &s.events[i]
		if !e.active(t) {
			continue
		}
		switch e.Kind {
		case CoreFailStop:
			d.FailedLC += e.Cores
			d.FailedBatch += e.BatchCores
		case CoreFailSlow:
			f := e.factor(0.5)
			bf := e.BatchFactor
			if bf <= 0 {
				bf = f
			}
			d.SlowLC = combineSlow(d.SlowLC, f)
			d.SlowBatch = combineSlow(d.SlowBatch, bf)
		}
	}
	return d
}

func combineSlow(cur, f float64) float64 {
	if cur <= 0 || cur > 1 {
		cur = 1
	}
	return cur * f
}

// LoadFactor returns the multiplier applied to every LC service's
// offered load at time t (1 when no flash crowd is active).
func (s *Schedule) LoadFactor(t float64) float64 {
	f := 1.0
	if s == nil {
		return f
	}
	s.noteTransitions(t)
	for i := range s.events {
		e := &s.events[i]
		if e.Kind == FlashCrowd && e.active(t) {
			f *= e.factor(3)
		}
	}
	return f
}

// BudgetFactor returns the multiplier applied to the power budget at
// time t (1 when no budget drop is active).
func (s *Schedule) BudgetFactor(t float64) float64 {
	f := 1.0
	if s == nil {
		return f
	}
	s.noteTransitions(t)
	for i := range s.events {
		e := &s.events[i]
		if e.Kind == BudgetDrop && e.active(t) {
			f *= e.factor(0.5)
		}
	}
	return f
}

// ActiveKinds lists the fault kinds active at time t, in the
// schedule's (start-sorted) event order, or nil when the hardware and
// telemetry are healthy.
func (s *Schedule) ActiveKinds(t float64) []string {
	if s == nil {
		return nil
	}
	s.noteTransitions(t)
	var kinds []string
	seen := map[Kind]bool{}
	for i := range s.events {
		e := &s.events[i]
		if e.active(t) && !seen[e.Kind] {
			seen[e.Kind] = true
			kinds = append(kinds, string(e.Kind))
		}
	}
	return kinds
}

// ObservePhase returns the scheduler's view of a phase result at time
// t: the result itself when no telemetry fault is active, or a
// deep-cloned copy with corrupted samples. profiling selects which
// event kinds apply (ProfileCorrupt to profiling phases,
// TelemetryGarbage to steady-state phases). The caller's res is never
// mutated — the physical truth stays intact for records and energy
// accounting.
func (s *Schedule) ObservePhase(t float64, res sim.PhaseResult, profiling bool) sim.PhaseResult {
	if s == nil {
		return res
	}
	want := TelemetryGarbage
	if profiling {
		want = ProfileCorrupt
	}
	var act *Event
	for i := range s.events {
		e := &s.events[i]
		if e.Kind == want && e.active(t) {
			act = e
			break
		}
	}
	if act == nil {
		return res
	}
	out := clonePhase(res)
	p, mag := act.prob(), act.magnitude()
	garbage := want == TelemetryGarbage
	for i := range out.BatchBIPS {
		out.BatchBIPS[i] = s.corrupt(out.BatchBIPS[i], p, mag, garbage)
	}
	for i := range out.BatchPowerW {
		out.BatchPowerW[i] = s.corrupt(out.BatchPowerW[i], p, mag, garbage)
	}
	out.LCCorePowerW = s.corrupt(out.LCCorePowerW, p, mag, garbage)
	out.PowerW = s.corrupt(out.PowerW, p, mag, garbage)
	for i := range out.Sojourns {
		// Sojourn dropout models lost latency samples: the query
		// completed (truth record keeps it) but its timing was lost.
		if s.r.Float64() < p/4 {
			out.Sojourns[i] = 0
		}
	}
	return out
}

// corrupt perturbs one telemetry sample: with probability p it is
// dropped to zero, replaced with outright garbage (NaN or a negative
// reading, steady-state telemetry only), or scaled by a log-uniform
// factor in [1/mag, mag].
func (s *Schedule) corrupt(v, p, mag float64, garbage bool) float64 {
	if s.r.Float64() >= p {
		return v
	}
	u := s.r.Float64()
	switch {
	case u < 0.25:
		return 0
	case garbage && u < 0.45:
		return math.NaN()
	case garbage && u < 0.6:
		return -v - 1
	default:
		return v * math.Exp((2*s.r.Float64()-1)*math.Log(mag))
	}
}

// clonePhase deep-copies every slice a corruption can touch so the
// caller's result (the physical truth) is never aliased.
func clonePhase(r sim.PhaseResult) sim.PhaseResult {
	out := r
	out.BatchBIPS = append([]float64(nil), r.BatchBIPS...)
	out.BatchInstrB = append([]float64(nil), r.BatchInstrB...)
	out.BatchPowerW = append([]float64(nil), r.BatchPowerW...)
	out.Sojourns = append([]float64(nil), r.Sojourns...)
	out.EffWays = append([]float64(nil), r.EffWays...)
	out.ExtraMeanSvc = append([]float64(nil), r.ExtraMeanSvc...)
	out.ExtraLCPowerW = append([]float64(nil), r.ExtraLCPowerW...)
	out.ExtraEffWaysLC = append([]float64(nil), r.ExtraEffWaysLC...)
	if r.ExtraSojourns != nil {
		out.ExtraSojourns = make([][]float64, len(r.ExtraSojourns))
		for i, s := range r.ExtraSojourns {
			out.ExtraSojourns[i] = append([]float64(nil), s...)
		}
	}
	return out
}
