package sim

import (
	"math"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/stats"
	"cuttlesys/internal/workload"
)

// stuckInjector de-rates the LC clock to a denormal-small factor for
// phases starting inside [from, to) — a core stuck at its minimum
// P-state, slow enough that the per-query service time overflows to
// +Inf (zero predicted throughput).
type stuckInjector struct{ from, to float64 }

func (s stuckInjector) Disrupt(t float64) Disruption {
	if t >= s.from && t < s.to {
		return Disruption{SlowLC: 5e-324, SlowBatch: 1}
	}
	return Disruption{SlowLC: 1, SlowBatch: 1}
}

// TestZeroThroughputViolatesNotNaN pins the contract for configurations
// with zero predicted LC throughput (perf.ServiceTime's +Inf): the
// phase reports an unbounded sojourn — a violated SLO — while power,
// inflation and batch throughput stay finite, and the queueing state is
// not poisoned: the service recovers the moment throughput returns.
func TestZeroThroughputViolatesNotNaN(t *testing.T) {
	m := testMachine(t, 11)
	m.SetInjector(stuckInjector{from: 0, to: 0.1})
	alloc := widestAlloc(m)
	qps := 0.5 * m.LC().MaxQPS

	res := m.Run(alloc, 0.1, qps)
	if !math.IsInf(res.LC[0].MeanSvc, 1) {
		t.Fatalf("MeanSvc = %v, want +Inf under a stuck clock", res.LC[0].MeanSvc)
	}
	if len(res.LC[0].Sojourns) == 0 || !math.IsInf(stats.P99(res.LC[0].Sojourns), 1) {
		t.Fatalf("sojourns %v: zero throughput under load must report a violated SLO", res.LC[0].Sojourns)
	}
	if math.IsNaN(res.PowerW) || math.IsInf(res.PowerW, 0) || res.PowerW <= 0 {
		t.Fatalf("PowerW = %v, want finite positive", res.PowerW)
	}
	if math.IsNaN(res.Inflation) || res.Inflation < 1 {
		t.Fatalf("Inflation = %v, want finite ≥ 1", res.Inflation)
	}
	for i, b := range res.BatchBIPS {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			t.Fatalf("batch job %d BIPS = %v", i, b)
		}
	}

	// Idle zero-throughput phase: no arrivals, so nothing to violate.
	m2 := testMachine(t, 12)
	m2.SetInjector(stuckInjector{from: 0, to: 0.1})
	idle := m2.Run(widestAlloc(m2), 0.1, 0)
	if len(idle.LC[0].Sojourns) != 0 {
		t.Fatalf("idle zero-throughput phase reported sojourns %v", idle.LC[0].Sojourns)
	}
	if math.IsNaN(idle.PowerW) || idle.PowerW <= 0 {
		t.Fatalf("idle PowerW = %v", idle.PowerW)
	}

	// Recovery: the stuck window ends, and the next phase must behave
	// exactly like a healthy service — finite sojourns, no +Inf parked
	// among the server free times from the violated phase.
	rec := m.Run(alloc, 0.1, qps)
	if len(rec.LC[0].Sojourns) == 0 {
		t.Fatal("no queries after recovery")
	}
	for _, s := range rec.LC[0].Sojourns {
		if math.IsInf(s, 0) || math.IsNaN(s) {
			t.Fatalf("post-recovery sojourn %v: queue state was poisoned", s)
		}
	}
	if p99 := stats.P99(rec.LC[0].Sojourns); p99*1e3 > 100*m.LC().QoSTargetMs {
		t.Fatalf("post-recovery p99 %vms is unbounded-ish; heap not recovered", p99*1e3)
	}
}

// TestZeroThroughputExtraService covers the same contract on the
// multi-service path.
func TestZeroThroughputExtraService(t *testing.T) {
	lc := mustApp(t, "xapian")
	extra := workload.SyntheticLC(77, 1)
	_, test := workload.SplitTrainTest(1, 16)
	m := New(Spec{
		Seed:           13,
		LC:             lc,
		ExtraLCs:       extra,
		Batch:          workload.Mix(13, test, 14),
		Reconfigurable: true,
	})
	// Extra services run at the nominal clock (no DVFS path), so force
	// zero throughput the way a degenerate reconstruction would: an
	// allocation whose core/cache the model maps to ~zero IPC does not
	// exist for valid profiles, so instead overflow via offered load on
	// the primary and check the extra service is simply unaffected.
	m.SetInjector(stuckInjector{from: 0, to: 0.1})
	alloc := Uniform(len(m.Batch()), true, m.NCores()/4, config.Widest, config.OneWay)
	alloc.ExtraLC = []LCAssign{{Cores: m.NCores() / 4, Core: config.Widest, Cache: config.FourWays}}
	res := m.RunMulti(alloc, 0.1, []float64{0.5 * lc.MaxQPS, 0.5 * extra[0].MaxQPS})
	if !math.IsInf(res.LC[0].MeanSvc, 1) {
		t.Fatalf("primary MeanSvc = %v, want +Inf", res.LC[0].MeanSvc)
	}
	if len(res.LC) != 2 || len(res.LC[1].Sojourns) == 0 {
		t.Fatal("extra service should keep serving")
	}
	for _, s := range res.LC[1].Sojourns {
		if math.IsInf(s, 0) || math.IsNaN(s) {
			t.Fatalf("extra sojourn %v", s)
		}
	}
	if math.IsNaN(res.PowerW) || res.PowerW <= 0 {
		t.Fatalf("PowerW = %v", res.PowerW)
	}
}
