package qsim

import (
	"math"
	"testing"

	"cuttlesys/internal/stats"
)

func TestLowLoadLatencyNearServiceTime(t *testing.T) {
	s := NewService(1, 16)
	meanSvc := 0.7e-3
	var all []float64
	for i := 0; i < 20; i++ {
		all = append(all, s.Step(0.1, 2000, meanSvc, 0.4)...) // ~12% utilisation
	}
	p50 := stats.Percentile(all, 0.5)
	if p50 > 2*meanSvc {
		t.Fatalf("median sojourn %v at low load, want near service time %v", p50, meanSvc)
	}
}

// TestLatencyExplodesNearSaturation checks the Fig. 1 shape: p99 rises
// with load and, near capacity, is several times its low-load value.
// One seed's ratio at 98 % load is a noisy statistic — it spans about
// 2.8–5.4 over seeds 1–8 — so the test asserts the median over eight
// seeds; the ordering must hold on every one.
func TestLatencyExplodesNearSaturation(t *testing.T) {
	meanSvc := 0.7e-3
	k := 16
	capacity := float64(k) / meanSvc // ~22.8k QPS
	p99At := func(seed uint64, qps float64) float64 {
		s := NewService(seed, k)
		var all []float64
		for i := 0; i < 150; i++ {
			all = append(all, s.Step(0.1, qps, meanSvc, 0.4)...)
		}
		return stats.P99(all)
	}
	var ratios []float64
	for seed := uint64(1); seed <= 8; seed++ {
		low := p99At(seed, 0.2*capacity)
		mid := p99At(seed, 0.7*capacity)
		high := p99At(seed, 0.98*capacity)
		if !(low <= mid && mid < high) {
			t.Fatalf("seed %d: p99 not increasing with load: %v %v %v", seed, low, mid, high)
		}
		ratios = append(ratios, high/low)
	}
	t.Logf("high/low p99 ratio, seeds 1–8: %.2f", ratios)
	if med := stats.Percentile(ratios, 0.5); med < 2.5 {
		t.Fatalf("near-saturation p99 is a median %.2f× the low-load p99 over seeds 1–8, want ≥ 2.5×", med)
	}
}

// backlog returns the amount of queued work, in seconds beyond the
// current clock, on the busiest server.
func backlog(s *Service) float64 {
	worst := 0.0
	for _, f := range s.freeAt {
		if b := f - s.now; b > worst {
			worst = b
		}
	}
	return worst
}

func TestOverloadAccumulatesBacklog(t *testing.T) {
	s := NewService(3, 4)
	meanSvc := 1e-3
	capacity := 4 / meanSvc
	s.Step(0.1, 2*capacity, meanSvc, 0.3)
	if backlog(s) <= 0 {
		t.Fatal("overloaded service should accumulate backlog")
	}
	b1 := backlog(s)
	s.Step(0.1, 2*capacity, meanSvc, 0.3)
	if backlog(s) <= b1 {
		t.Fatal("backlog should keep growing under sustained overload")
	}
}

func TestBacklogDrainsAfterLoadDrop(t *testing.T) {
	s := NewService(4, 8)
	meanSvc := 1e-3
	capacity := 8 / meanSvc
	s.Step(0.2, 1.5*capacity, meanSvc, 0.3)
	high := backlog(s)
	for i := 0; i < 10; i++ {
		s.Step(0.1, 0.1*capacity, meanSvc, 0.3)
	}
	if backlog(s) >= high/2 {
		t.Fatalf("backlog did not drain: %v -> %v", high, backlog(s))
	}
}

func TestFasterServersCutLatency(t *testing.T) {
	run := func(meanSvc float64) float64 {
		s := NewService(5, 16)
		var all []float64
		for i := 0; i < 20; i++ {
			all = append(all, s.Step(0.1, 15000, meanSvc, 0.4)...)
		}
		return stats.P99(all)
	}
	fast := run(0.5e-3)  // like a {6,6,6} config
	slow := run(0.95e-3) // like a narrow config near saturation
	if slow <= fast {
		t.Fatalf("slower cores should raise p99: fast %v, slow %v", fast, slow)
	}
}

func TestSetServers(t *testing.T) {
	s := NewService(6, 8)
	if len(s.freeAt) != 8 {
		t.Fatal("initial server count wrong")
	}
	s.SetServers(4)
	if len(s.freeAt) != 4 {
		t.Fatal("shrink failed")
	}
	s.SetServers(10)
	if len(s.freeAt) != 10 {
		t.Fatal("grow failed")
	}
	// More servers must reduce tail latency at fixed load.
	p99With := func(k int) float64 {
		svc := NewService(7, k)
		var all []float64
		for i := 0; i < 20; i++ {
			all = append(all, svc.Step(0.1, 10000, 1e-3, 0.4)...)
		}
		return stats.P99(all)
	}
	if p99With(16) >= p99With(11) {
		t.Fatal("adding servers should cut tail latency near saturation")
	}
}

func TestStepPanics(t *testing.T) {
	s := NewService(8, 2)
	for _, fn := range []func(){
		func() { s.Step(0, 100, 1e-3, 0.3) },
		func() { s.Step(0.1, 100, 0, 0.3) },
		func() { NewService(9, 0) },
		func() { s.SetServers(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestZeroQPSWindow(t *testing.T) {
	s := NewService(10, 4)
	if got := s.Step(0.1, 0, 1e-3, 0.3); len(got) != 0 {
		t.Fatalf("idle window produced %d sojourns", len(got))
	}
	if s.now != 0.1 {
		t.Fatal("clock did not advance on idle window")
	}
}

func TestArrivalCountMatchesPoisson(t *testing.T) {
	s := NewService(11, 64)
	qps := 5000.0
	n := 0
	const windows = 50
	for i := 0; i < windows; i++ {
		n += len(s.Step(0.1, qps, 1e-4, 0.3))
	}
	want := qps * 0.1 * windows
	if math.Abs(float64(n)-want) > 0.05*want {
		t.Fatalf("arrivals %d, want ~%v", n, want)
	}
}

func TestP99AnalyticAgreesWithSimulation(t *testing.T) {
	// At moderate loads the closed form should land within ~35% of the
	// discrete-event simulation — close enough for oracle baselines.
	meanSvc := 0.7e-3
	sigma := 0.4
	k := 16
	for _, loadFrac := range []float64{0.3, 0.6, 0.8} {
		qps := loadFrac * float64(k) / meanSvc
		s := NewService(13, k)
		var all []float64
		for i := 0; i < 100; i++ {
			all = append(all, s.Step(0.1, qps, meanSvc, sigma)...)
		}
		sim := stats.P99(all)
		analytic := P99Analytic(k, qps, meanSvc, sigma)
		ratio := analytic / sim
		if ratio < 0.6 || ratio > 1.6 {
			t.Errorf("load %.0f%%: analytic %v vs sim %v (ratio %.2f)", 100*loadFrac, analytic, sim, ratio)
		}
	}
}

func TestP99AnalyticSaturation(t *testing.T) {
	if !math.IsInf(P99Analytic(4, 5000, 1e-3, 0.3), 1) {
		t.Fatal("overloaded analytic p99 should be +Inf")
	}
	idle := P99Analytic(4, 0, 1e-3, 0.3)
	if idle <= 1e-3 || idle > 3e-3 {
		t.Fatalf("idle analytic p99 = %v, want slightly above mean service time", idle)
	}
}

func TestP99AnalyticMonotoneInLoad(t *testing.T) {
	prev := 0.0
	for _, qps := range []float64{1000, 5000, 10000, 14000, 15500} {
		v := P99Analytic(16, qps, 1e-3, 0.4)
		if v < prev {
			t.Fatalf("analytic p99 decreased with load at %v qps", qps)
		}
		prev = v
	}
}

func TestErlangCBounds(t *testing.T) {
	for _, k := range []int{1, 4, 16, 32} {
		for _, rho := range []float64{0.1, 0.5, 0.9, 0.99} {
			c := erlangC(k, rho*float64(k))
			if c < 0 || c > 1 {
				t.Fatalf("erlangC(%d, rho=%v) = %v outside [0,1]", k, rho, c)
			}
		}
	}
	if erlangC(4, 0) != 0 {
		t.Fatal("erlangC with zero load should be 0")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		s := NewService(42, 8)
		return s.Step(0.1, 9000, 1e-3, 0.4)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("replay lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("replay values differ")
		}
	}
}
