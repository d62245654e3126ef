package fleet

import "math"

// A Router splits the fleet's offered QPS across machines each slice.
// Route must return one non-negative share per telemetry entry,
// summing (up to float rounding) to offered; it may keep per-fleet
// state, since the fleet calls it serially, once per slice, with
// telemetry in machine index order. Implementations must not mutate
// the telemetry slice.
type Router interface {
	Name() string
	Route(offered float64, tele []Telemetry) []float64
}

// divide turns routing weights into absolute QPS shares. The sum runs
// in index order (determinism), non-finite or negative weights are
// dropped, and a degenerate weight vector falls back to an equal
// split so traffic is always conserved. One share is the whole amount:
// offered·w/w need not be offered.
func divide(offered float64, w []float64) []float64 {
	if len(w) == 1 {
		return []float64{offered}
	}
	out := make([]float64, len(w))
	sum := 0.0
	for _, v := range w {
		if v > 0 && !math.IsInf(v, 1) {
			sum += v
		}
	}
	if sum <= 0 || math.IsInf(sum, 1) {
		for i := range out {
			out[i] = offered / float64(len(w))
		}
		return out
	}
	for i, v := range w {
		if v > 0 && !math.IsInf(v, 1) {
			out[i] = offered * v / sum
		}
	}
	return out
}

// Uniform splits traffic equally across machines, ignoring telemetry —
// the baseline round-robin load balancer.
type Uniform struct{}

// Name implements Router.
func (Uniform) Name() string { return "uniform" }

// Route implements Router.
func (Uniform) Route(offered float64, tele []Telemetry) []float64 {
	w := make([]float64, len(tele))
	for i := range w {
		w[i] = 1
	}
	return divide(offered, w)
}

// LeastLoaded weights each machine by capacity discounted by how close
// its last-slice tail latency ran to target: weight ∝ maxQPS / (1 +
// p99/QoS). A machine whose tail is twice its target gets a third the
// per-capacity traffic of an idle one; before any telemetry exists the
// split is capacity-proportional.
type LeastLoaded struct{}

// Name implements Router.
func (LeastLoaded) Name() string { return "least-loaded" }

// Route implements Router.
func (LeastLoaded) Route(offered float64, tele []Telemetry) []float64 {
	w := make([]float64, len(tele))
	for i, t := range tele {
		w[i] = t.MaxQPS
		if t.Valid && t.QoSMs > 0 && t.P99Ms > 0 {
			w[i] = t.MaxQPS / (1 + t.P99Ms/t.QoSMs)
		}
	}
	return divide(offered, w)
}

// QoSAware is a stateful multiplicative-decrease router: a machine
// that violated QoS, lost cores, or entered degraded mode last slice
// has its routing weight halved; a healthy slice multiplies it by
// Recover (default 1.25) up to full. Shares are weight × capacity, so
// a big healthy machine still absorbs more than a small one. The AIMD
// shape drains traffic from a faulty node within a few slices and
// restores it gradually, avoiding the thundering-herd flap of instant
// reinstatement.
//
// Weights are keyed by the stable machine id, so membership churn
// (machines joining or leaving between slices) never resets a
// surviving machine's weight. Recovery is clamped below by an
// additive step: pure multiplicative recovery from a weight near zero
// stalls — with a subnormal floor, w×1.25 can round back to w and the
// machine starves forever — so a healthy slice always restores at
// least recoveryStep of weight. With the default floor the additive
// term only engages below the floor and the dynamics are unchanged.
type QoSAware struct {
	// Floor bounds how far a machine's weight can decay, keeping a
	// trickle of traffic flowing so recovery is observable. Default
	// 0.05.
	Floor float64
	// Recover is the multiplicative weight restoration per healthy
	// slice; values <= 1 select the default 1.25. The default restores
	// much more slowly than the ×0.5 decay drains — a machine that
	// flapped down to the floor needs ~14 clean slices back to full —
	// so deployments that re-admit quarantined machines (the control
	// plane's probation path) typically set 2 for a symmetric AIMD.
	Recover float64

	w map[int]float64
}

// recoveryStep is the minimum absolute weight restored per healthy
// slice — small enough never to outrun ×1.25 recovery above weight
// 1/64 (below the default floor), large enough to escape the
// subnormal-stall region in a handful of slices.
const recoveryStep = 1.0 / 256

// Name implements Router.
func (q *QoSAware) Name() string { return "qos-aware" }

// Route implements Router.
func (q *QoSAware) Route(offered float64, tele []Telemetry) []float64 {
	floor := q.Floor
	if floor <= 0 {
		floor = 0.05
	}
	rec := q.Recover
	if rec <= 1 {
		rec = 1.25
	}
	if q.w == nil {
		q.w = make(map[int]float64, len(tele))
	}
	eff := make([]float64, len(tele))
	for i, t := range tele {
		w, ok := q.w[t.Machine]
		if !ok {
			w = 1
		}
		if t.Valid {
			if t.Violated || t.Degraded || t.FailedCores > 0 {
				w = math.Max(floor, w*0.5)
			} else {
				w = math.Min(1, math.Max(w*rec, w+recoveryStep))
			}
			q.w[t.Machine] = w
		}
		eff[i] = w * t.MaxQPS
	}
	return divide(offered, eff)
}
