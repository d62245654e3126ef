package fleet

import (
	"math"
	"testing"
)

// flapTele is n machines' telemetry with one of them, flapper,
// violating QoS on a bad slice and healthy otherwise.
func flapTele(n, flapper int, badSlice bool) []Telemetry {
	ts := make([]Telemetry, n)
	for i := range ts {
		ts[i] = Telemetry{
			Machine: i, MaxQPS: 1000, RefMaxPowerW: 100, Valid: true,
			QPS: 500, P99Ms: 2, QoSMs: 4, AvgPowerW: 60, BudgetW: 70,
		}
	}
	ts[flapper].Violated = badSlice
	return ts
}

// TestQoSAwareFlapStorm is the recovery-asymmetry regression: under a
// long flap storm the weight must stay strictly positive (it decays to
// the floor, never to zero), and once the storm ends the machine must
// converge back to exactly full weight.
func TestQoSAwareFlapStorm(t *testing.T) {
	q := &QoSAware{}
	for i := 0; i < 400; i++ {
		q.Route(900, flapTele(3, 1, i%2 == 0))
		if w := q.Weight(1); !(w > 0) {
			t.Fatalf("weight hit zero at flap slice %d", i)
		}
	}
	if w := q.Weight(1); w > 0.1 {
		t.Fatalf("storm did not drain the flapper: weight %v", w)
	}
	var shares []float64
	for i := 0; i < 30; i++ {
		shares = q.Route(900, flapTele(3, 1, false))
	}
	if w := q.Weight(1); w != 1 {
		t.Fatalf("weight %v after recovery, want exactly 1", w)
	}
	if math.Abs(shares[1]-shares[0]) > 1e-9 {
		t.Fatalf("recovered machine not at full share: %v", shares)
	}
}

// TestQoSAwareMembershipStable pins the id-keyed weight contract: a
// machine vanishing from the routed set (quarantine, eviction) and
// later reappearing keeps its decayed weight — the old length-keyed
// state silently reset every weight to 1 whenever N changed.
func TestQoSAwareMembershipStable(t *testing.T) {
	q := &QoSAware{}
	full := flapTele(3, 1, true)
	for i := 0; i < 4; i++ {
		q.Route(900, full)
	}
	drained := q.Weight(1)
	if drained >= 0.2 {
		t.Fatalf("setup: weight %v not drained", drained)
	}

	// Machine 1 leaves the routed view; the survivors' weights and the
	// absentee's must be untouched.
	sub := []Telemetry{full[0], full[2]}
	q.Route(900, sub)
	if w := q.Weight(1); w != drained {
		t.Fatalf("absent machine's weight changed: %v -> %v", drained, w)
	}
	if w := q.Weight(0); w != 1 {
		t.Fatalf("survivor weight reset: %v", w)
	}

	// It returns healthy: recovery resumes from the decayed weight, not
	// from a reset.
	healthy := flapTele(3, 1, false)
	shares := q.Route(900, healthy)
	if !(shares[1] < shares[0]) {
		t.Fatalf("returning machine served at full weight immediately: %v", shares)
	}

	// A brand-new id starts at full weight.
	grown := append(healthy, Telemetry{Machine: 7, MaxQPS: 1000, RefMaxPowerW: 100})
	q.Route(900, grown)
	if w := q.Weight(7); w != 1 {
		t.Fatalf("new machine weight %v", w)
	}
}
