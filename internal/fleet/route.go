package fleet

import "math"

// A Router splits the fleet's offered QPS across machines each slice.
// Route must return one non-negative share per telemetry entry,
// summing (up to float rounding) to offered, in a slice it does not
// keep: the fleet scales the shares in place and keeps them as the
// slice record's NodeQPS. It may keep per-fleet state, since the fleet
// calls it serially, once per slice, with telemetry in machine index
// order. Implementations must not mutate the telemetry slice, which is
// valid only during the call.
type Router interface {
	Name() string
	Route(offered float64, tele []Telemetry) []float64
}

// divide turns routing weights into absolute QPS shares, in place,
// and returns w. The sum runs in index order (determinism), non-finite
// or negative weights are dropped, and a degenerate weight vector falls
// back to an equal split so traffic is always conserved. One share is
// the whole amount: offered·w/w need not be offered.
func divide(offered float64, w []float64) []float64 {
	if len(w) == 1 {
		w[0] = offered
		return w
	}
	sum := 0.0
	for _, v := range w {
		if v > 0 && !math.IsInf(v, 1) {
			sum += v
		}
	}
	if sum <= 0 || math.IsInf(sum, 1) {
		for i := range w {
			w[i] = offered / float64(len(w))
		}
		return w
	}
	for i, v := range w {
		if v > 0 && !math.IsInf(v, 1) {
			w[i] = offered * v / sum
		} else {
			w[i] = 0
		}
	}
	return w
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
// has its routing weight halved, down to a floor of 0.05 that keeps a
// trickle of traffic flowing so recovery is observable; a healthy
// slice multiplies it by 1.25 up to full. Shares are weight ×
// capacity, so a big healthy machine still absorbs more than a small
// one. The AIMD shape drains traffic from a faulty node within a few
// slices and restores it gradually, avoiding the thundering-herd flap
// of instant reinstatement: a machine that flapped down to the floor
// needs 14 clean slices back to full.
//
// Weights are keyed by the stable machine id, so membership churn
// (machines joining or leaving between slices) never resets a
// surviving machine's weight.
type QoSAware struct {
	w map[int]float64
}

// The QoS-aware router's weight floor and per-healthy-slice recovery
// factor. Weights stay in [qosFloor, 1], where ×qosRecover always
// restores weight.
const (
	qosFloor   = 0.05
	qosRecover = 1.25
)

// Name implements Router.
func (q *QoSAware) Name() string { return "qos-aware" }

// Route implements Router.
func (q *QoSAware) Route(offered float64, tele []Telemetry) []float64 {
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
				w = math.Max(qosFloor, w*0.5)
			} else {
				w = math.Min(1, w*qosRecover)
			}
			q.w[t.Machine] = w
		}
		eff[i] = w * t.MaxQPS
	}
	return divide(offered, eff)
}
