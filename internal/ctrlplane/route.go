package ctrlplane

import "cuttlesys/internal/fleet"

// maskRouter wraps the fleet's configured router with the control
// plane's health mask: quarantined and draining machines get exactly
// zero routing weight (the arbiter is untouched, so they keep their
// power share until they leave), probation machines serve a reduced
// share, and the inner router only ever sees the serving subset — a
// stateful policy like QoSAware keeps working across quarantines
// because Telemetry.Machine carries the stable id.
type maskRouter struct {
	m     *Manager
	inner fleet.Router
}

// Name implements fleet.Router.
func (r *maskRouter) Name() string { return "ctrl(" + r.inner.Name() + ")" }

// Route implements fleet.Router. All arithmetic runs in telemetry
// (id) order, so the mask preserves the fleet's determinism contract.
func (r *maskRouter) Route(offered float64, tele []fleet.Telemetry) []float64 {
	out := make([]float64, len(tele))
	serving := make([]int, 0, len(tele))
	for i, t := range tele {
		if r.m.stateOf(t.Machine).serving() {
			serving = append(serving, i)
		}
	}
	if len(serving) == 0 {
		// Nobody to serve: shed the whole offered load rather than
		// route to a quarantined machine. The manager records the shed
		// as UnroutedQPS.
		r.m.unrouted += offered
		return out
	}
	sub := make([]fleet.Telemetry, len(serving))
	for k, i := range serving {
		sub[k] = tele[i]
	}
	shares := r.inner.Route(offered, sub)
	// Probation machines carry a reduced weight; renormalising keeps
	// the offered load conserved across the serving set.
	total := 0.0
	for k, i := range serving {
		if k >= len(shares) {
			break
		}
		w := shares[k]
		if w < 0 {
			w = 0
		}
		if r.m.stateOf(tele[i].Machine) == Probation {
			w *= r.m.health.ProbationWeight
		}
		out[i] = w
		total += w
	}
	if total <= 0 {
		r.m.unrouted += offered
		for i := range out {
			out[i] = 0
		}
		return out
	}
	scale := offered / total
	for _, i := range serving {
		out[i] *= scale
	}
	return out
}
