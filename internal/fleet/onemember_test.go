package fleet

import (
	"math"
	"testing"

	"cuttlesys/internal/rng"
)

// Every name the registries accept.
var (
	routerNames  = []string{"uniform", "least-loaded", "qos-aware"}
	arbiterNames = []string{"proportional", "headroom"}
)

// oneMemberScript is one machine's telemetry over a run that starts
// unmeasured, then drains its QoS-aware weight to the floor through
// every stress signal and recovers it to full.
func oneMemberScript() []Telemetry {
	healthy := Telemetry{
		Machine: 3, MaxQPS: 1000, RefMaxPowerW: 100, Valid: true,
		QPS: 500, P99Ms: 2, QoSMs: 4, AvgPowerW: 60, BudgetW: 70,
	}
	violated, degraded, failed, idle, hungry, unbudgeted := healthy, healthy, healthy, healthy, healthy, healthy
	violated.Violated, violated.P99Ms = true, 9
	degraded.Degraded = true
	failed.FailedCores = 2
	idle.QPS, idle.P99Ms, idle.AvgPowerW = 0, 0, 5
	hungry.AvgPowerW = 95
	unbudgeted.BudgetW = 0
	script := []Telemetry{{Machine: 3, MaxQPS: 1000, RefMaxPowerW: 100}}
	for range 3 {
		script = append(script, violated, degraded, failed, violated)
	}
	script = append(script, idle, hungry, unbudgeted)
	for range 16 {
		script = append(script, healthy)
	}
	return script
}

// TestOneMemberGetsTheWhole: with one machine, every registry router
// hands it exactly the offered QPS and every registry arbiter exactly
// the budget, bit for bit, whatever its telemetry says. A one-machine
// fleet therefore runs the same under every router/arbiter pair, which
// is why scenario.TestOneMachineFleetIsTheHarnessRun steps its fleets
// under one pair only.
func TestOneMemberGetsTheWhole(t *testing.T) {
	script := oneMemberScript()
	r := rng.New(1)
	amounts := make([][]float64, len(script))
	for i := range amounts {
		// Zero, and seeded finite amounts spanning QPS and watt scales.
		amounts[i] = []float64{0, r.Float64() * 1e4, r.Float64() * 1e-3, math.Ldexp(r.Float64(), 40)}
	}
	whole := func(kind, name string, i int, amount float64, got []float64) {
		t.Helper()
		if len(got) != 1 || math.Float64bits(got[0]) != math.Float64bits(amount) {
			t.Fatalf("%s %s, step %d (%+v): %v of %v", kind, name, i, script[i], got, amount)
		}
	}
	for _, name := range routerNames {
		rt, err := RouterByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, tele := range script {
			for _, a := range amounts[i] {
				whole("router", name, i, a, rt.Route(a, []Telemetry{tele}))
			}
		}
	}
	for _, name := range arbiterNames {
		ar, err := ArbiterByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, tele := range script {
			for _, a := range amounts[i] {
				whole("arbiter", name, i, a, ar.Split(a, []Telemetry{tele}))
			}
		}
	}
}
