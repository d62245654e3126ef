package sim

// Disruption is the hardware fault state applied to one execution
// phase: fail-stopped cores and frequency de-rating from fail-slow
// cores. The zero value means a healthy machine. Fail-stop targets are
// split between latency-critical service 0's cores and the batch pool
// because that is the granularity the allocation itself uses; dead
// cores draw no power and execute nothing. The other services are
// never disrupted.
type Disruption struct {
	// FailedLC is the number of service 0's cores that are
	// fail-stopped. The service keeps at least one live core (a
	// total-loss event would leave the queueing system undefined).
	FailedLC int
	// FailedBatch is the number of fail-stopped cores in the batch
	// pool; surviving jobs time-multiplex onto the remaining cores.
	FailedBatch int
	// SlowLC de-rates service 0's clock (fail-slow): effective
	// frequency is nominal × SlowLC. Zero or one means healthy.
	SlowLC float64
	// SlowBatch de-rates the batch cores' clock the same way.
	SlowBatch float64
}

// normalized clamps a disruption into its valid domain: negative core
// counts become zero and non-positive (or above-nominal) slow factors
// become one, so a zero Disruption is exactly "no fault".
func (d Disruption) normalized() Disruption {
	if d.FailedLC < 0 {
		d.FailedLC = 0
	}
	if d.FailedBatch < 0 {
		d.FailedBatch = 0
	}
	if d.SlowLC <= 0 || d.SlowLC > 1 {
		d.SlowLC = 1
	}
	if d.SlowBatch <= 0 || d.SlowBatch > 1 {
		d.SlowBatch = 1
	}
	return d
}

// Injector supplies the hardware fault state for each execution phase.
// The machine queries it at the phase's start time; implementations
// must be deterministic in t for reproducible experiments. The
// canonical implementation is fault.Schedule.
type Injector interface {
	Disrupt(t float64) Disruption
}

// SetInjector installs (or, with nil, removes) a fault injector. With
// no injector every phase runs on healthy hardware — the zero-cost
// default path.
func (m *Machine) SetInjector(inj Injector) { m.inj = inj }
