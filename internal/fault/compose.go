package fault

import (
	"cuttlesys/internal/obs"
	"cuttlesys/internal/sim"
)

// Injector is the full fault surface the harness drives (it is
// harness.FaultInjector): hardware faults via sim.Injector,
// environmental perturbations (flash-crowd load, budget drops),
// corruption of the scheduler's telemetry view, and active-kind
// reporting. Schedule implements it.
type Injector interface {
	sim.Injector
	// LoadFactor multiplies every LC service's offered load at time t.
	LoadFactor(t float64) float64
	// BudgetFactor multiplies the power budget at time t.
	BudgetFactor(t float64) float64
	// ObservePhase returns the scheduler's (possibly corrupted) view
	// of a phase result; the original must not be mutated.
	ObservePhase(t float64, res sim.PhaseResult, profiling bool) sim.PhaseResult
	// ActiveKinds names the fault kinds active at time t, nil if none.
	ActiveKinds(t float64) []string
}

// Compose layers several injectors into one: a machine's standing
// chaos schedule plus a drill's incident, or a control plane
// overlaying an operational fault on a node it is draining. Effects
// combine the way overlapping events inside one Schedule do —
//
//   - hardware disruptions add (fail-stopped cores sum, slow-down
//     factors multiply),
//   - load and budget factors multiply,
//   - telemetry corruption chains in argument order (each injector
//     observes the previous one's view, the physical truth is never
//     mutated),
//   - active kinds concatenate in argument order without duplicates.
//
// Nil members are skipped. Composing zero or one live injectors
// returns nil or that injector unchanged, so a drain-aware caller can
// unconditionally wrap a possibly-nil base injector at no cost. The
// composite forwards SetCollector to every part that accepts one
// (harness.Observable), so each schedule still emits its own
// inject/recover instants.
func Compose(parts ...Injector) Injector {
	kept := make([]Injector, 0, len(parts))
	for _, p := range parts {
		if p != nil {
			kept = append(kept, p)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &composite{parts: kept}
}

// composite is the layered injector Compose builds.
type composite struct {
	parts []Injector
}

// Disrupt implements sim.Injector: per-part disruptions combine like
// overlapping events in one schedule.
func (c *composite) Disrupt(t float64) sim.Disruption {
	var d sim.Disruption
	for _, p := range c.parts {
		pd := p.Disrupt(t)
		d.FailedLC += pd.FailedLC
		d.FailedBatch += pd.FailedBatch
		if pd.SlowLC > 0 && pd.SlowLC != 1 {
			d.SlowLC = combineSlow(d.SlowLC, pd.SlowLC)
		}
		if pd.SlowBatch > 0 && pd.SlowBatch != 1 {
			d.SlowBatch = combineSlow(d.SlowBatch, pd.SlowBatch)
		}
	}
	return d
}

// LoadFactor implements the harness fault surface; factors multiply.
func (c *composite) LoadFactor(t float64) float64 {
	f := 1.0
	for _, p := range c.parts {
		f *= p.LoadFactor(t)
	}
	return f
}

// BudgetFactor implements the harness fault surface; factors multiply.
func (c *composite) BudgetFactor(t float64) float64 {
	f := 1.0
	for _, p := range c.parts {
		f *= p.BudgetFactor(t)
	}
	return f
}

// ObservePhase chains each part's corruption in argument order.
func (c *composite) ObservePhase(t float64, res sim.PhaseResult, profiling bool) sim.PhaseResult {
	for _, p := range c.parts {
		res = p.ObservePhase(t, res, profiling)
	}
	return res
}

// ActiveKinds unions the parts' active kinds, first appearance wins.
func (c *composite) ActiveKinds(t float64) []string {
	var kinds []string
	seen := map[string]bool{}
	for _, p := range c.parts {
		for _, k := range p.ActiveKinds(t) {
			if !seen[k] {
				seen[k] = true
				kinds = append(kinds, k)
			}
		}
	}
	return kinds
}

// SetCollector forwards the collector to every part that accepts one.
func (c *composite) SetCollector(col obs.Collector) {
	for _, p := range c.parts {
		if o, ok := p.(interface{ SetCollector(obs.Collector) }); ok {
			o.SetCollector(col)
		}
	}
}
