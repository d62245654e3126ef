package harness

import (
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// benchDriver assembles a driver over the static scheduler: the
// scheduler does no real work, so the measurement isolates the
// harness hot path the observability layer instruments.
func benchDriver(tb testing.TB, c obs.Collector) (*Driver, []float64, float64) {
	tb.Helper()
	lc, err := workload.ByName("silo")
	if err != nil {
		tb.Fatal(err)
	}
	_, test := workload.SplitTrainTest(1, 16)
	m := sim.New(sim.Spec{Seed: 1, LC: lc, Batch: workload.Mix(1, test, 16), Reconfigurable: true})
	s := &staticScheduler{
		alloc:    sim.Uniform(16, true, 16, config.Widest, config.OneWay),
		overhead: 0.0005,
	}
	d, err := NewDriver(m, s, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if c != nil {
		d.SetCollector(c)
	}
	qps := []float64{0.5 * lc.MaxQPS}
	return d, qps, 0.8 * m.MaxPowerW()
}

// BenchmarkObsOverhead measures what the observability layer adds to
// one harness timeslice. The disabled path routes every hook through
// the Nop collector, so /nop is the instrumented-but-untraced cost
// every ordinary run pays — its per-slice allocations must not exceed
// the uninstrumented baseline's. /recorder is the fully traced cost.
func BenchmarkObsOverhead(b *testing.B) {
	step := func(b *testing.B, c obs.Collector) {
		d, qps, budgetW := benchDriver(b, c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.StepSlice(qps, 0.5, budgetW); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nop", func(b *testing.B) { step(b, nil) })
	b.Run("recorder", func(b *testing.B) { step(b, obs.NewRecorder()) })
}

// TestNopCollectorAddsNoSliceAllocations pins the zero-allocation
// claim the Nop path makes: the telemetry hooks a slice executes —
// scope staging, wall sampling, the span/metric emission guards —
// allocate nothing when the collector is disabled.
func TestNopCollectorAddsNoSliceAllocations(t *testing.T) {
	d := &Driver{obs: obs.Nop, scope: obs.NewScope(nil)}
	allocs := testing.AllocsPerRun(100, func() {
		d.scope.SetContext(0.1, 1)
		w := obs.BeginWall(d.obs)
		d.chargeOverhead(&SliceRecord{}, 0.1, 0.0005)
		w.End(d.obs, "harness.slice")
	})
	if allocs != 0 {
		t.Fatalf("nop telemetry path allocated %.1f times per slice, want 0", allocs)
	}
}

// TestHotpathTelemetryEmitted: a traced run reports the machine's
// surface-table counters as monotone metric series.
func TestHotpathTelemetryEmitted(t *testing.T) {
	rec := obs.NewRecorder()
	d, qps, budgetW := benchDriver(t, rec)
	defer d.Detach()
	for i := 0; i < 3; i++ {
		if _, err := d.StepSlice(qps, 0.5, budgetW); err != nil {
			t.Fatal(err)
		}
	}
	var lookups float64
	found := false
	for _, s := range rec.Registry().Snapshot() {
		if s.Name == obs.MetricHotpathLookups {
			lookups, found = s.Value, true
		}
	}
	if !found || lookups <= 0 {
		t.Fatalf("hotpath lookup metric missing or zero (found=%v, v=%v)", found, lookups)
	}
	_, machineLookups := d.Machine().SurfaceStats()
	if lookups != float64(machineLookups) {
		t.Fatalf("metric reports %v lookups, machine counted %d", lookups, machineLookups)
	}
}
