package harness

import "cuttlesys/internal/obs"

// Observable is the optional extension a scheduler or fault injector
// implements to receive an observability collector. The driver wires
// it through SetCollector, so policies opt in without the Scheduler
// interface changing.
type Observable interface {
	SetCollector(c obs.Collector)
}

// SetCollector attaches an observability collector to the driver. The
// scheduler (if Observable) receives the driver's slice-scoped view,
// so events it marks during DecideMulti inherit the slice's start time
// and index; the fault injector (if Observable) receives the machine-level
// collector, since its events carry their own fault-schedule times.
// Passing nil detaches (reverts to the zero-cost no-op collector).
func (d *Driver) SetCollector(c obs.Collector) {
	d.obs = obs.OrNop(c)
	d.scope = obs.NewScope(d.obs)
	if o, ok := d.s.(Observable); ok {
		o.SetCollector(d.scope)
	}
	if o, ok := d.inj.(Observable); ok {
		o.SetCollector(d.obs)
	}
}

// chargeOverhead routes the scheduler's modeled compute cost through
// the collector: the record's OverheadSec stays a pure function of the
// seed (the overhead is modeled, never measured), and the trace gets
// the decide span covering [t, t+overhead) — the interval the hold
// phase bridges.
func (d *Driver) chargeOverhead(rec *SliceRecord, t, overhead float64) {
	rec.OverheadSec = overhead
	if !d.obs.Enabled() {
		return
	}
	d.scope.Emit(obs.Span(obs.SpanDecide, t, overhead))
	d.obs.Add(obs.MetricOverheadSec, obs.NoLabels, overhead)
}

// emitSliceTelemetry folds the finished slice record into the trace
// and metrics — one slice span, a QoS-violation instant when the
// slice missed, and the per-slice series of DESIGN.md §10. Only
// called when the collector is enabled.
func (d *Driver) emitSliceTelemetry(rec *SliceRecord) {
	c := d.scope
	ev := obs.Span(obs.SpanSlice, rec.T, SliceDur).
		With("sched", d.s.Name()).With("cfg", rec.LCCoreCfg)
	if rec.Degraded {
		ev = ev.With("degraded", "1")
	}
	c.Emit(ev)
	if rec.anyViolated() {
		c.Emit(obs.Instant(obs.EventQoSViolation, rec.T).
			With("p99Ms", obs.Float(rec.P99Ms)).
			With("qosMs", obs.Float(rec.QoSMs)))
		c.Add(obs.MetricQoSViolations, obs.NoLabels, 1)
	}
	c.Add(obs.MetricSlices, obs.NoLabels, 1)
	c.Add(obs.MetricInstrB, obs.NoLabels, rec.TotalInstrB)
	c.Set(obs.MetricPowerW, obs.NoLabels, rec.AvgPowerW)
	c.Observe(obs.MetricP99Hist, obs.NoLabels, rec.P99Ms)
	if rec.ProfileRetries > 0 {
		c.Add(obs.MetricProfileRetries, obs.NoLabels, float64(rec.ProfileRetries))
	}
	if rec.Degraded {
		c.Add(obs.MetricDegradedSlices, obs.NoLabels, 1)
	}
	for _, k := range rec.FaultKinds {
		c.Add(obs.MetricFaultSlices, obs.Label("kind", k), 1)
	}
	d.emitHotpathTelemetry(c)
}

// emitHotpathTelemetry folds the machine's surface-table build and
// lookup counters into per-slice metric deltas. Counts are
// deterministic functions of the simulated work, so the series stay
// byte-stable across GOMAXPROCS like every other metric.
func (d *Driver) emitHotpathTelemetry(c *obs.Scope) {
	builds, lookups := d.m.SurfaceStats()
	if delta := builds - d.lastBuilds; delta > 0 {
		c.Add(obs.MetricHotpathTableBuilds, obs.NoLabels, float64(delta))
	}
	if delta := lookups - d.lastLookups; delta > 0 {
		c.Add(obs.MetricHotpathLookups, obs.NoLabels, float64(delta))
	}
	d.lastBuilds, d.lastLookups = builds, lookups
}
