// Package qsim simulates a latency-critical interactive service as an
// open-loop M/G/k queueing system — the TailBench-substitute substrate
// (DESIGN.md §1). Queries arrive in a Poisson stream at the offered
// load, each carries a log-normally distributed instruction demand, and
// a central FCFS queue feeds the k cores assigned to the service. The
// per-query service time is the demand divided by the core's speed,
// which the machine simulator derives from the performance model for
// the service's current core configuration and cache allocation.
//
// Tail latency of an interactive service is a queueing phenomenon: p99
// sojourn time is flat while the offered load is well below the
// configuration-dependent capacity and explodes as it approaches it —
// exactly the Fig. 1 characterisation the paper builds on. Simulating
// the queue, rather than modelling it analytically, also reproduces the
// transient behaviour of §VIII-D: backlog accumulated during a load
// spike keeps violating QoS until the runtime reacts.
//
// The simulator carries state across calls (server busy horizons), so
// the machine can step it in sub-slice increments — 1 ms profiling
// windows followed by the 98 ms steady state — with configuration
// changes applying to queries that start after the change, the way a
// real reconfiguration would.
package qsim

import (
	"math"
	"slices"

	"cuttlesys/internal/rng"
)

// Service is the queueing state of one latency-critical service.
type Service struct {
	r      *rng.RNG
	now    float64   // simulation clock, seconds
	freeAt freeTimes // per-server next-free times
}

// NewService returns a service with k servers (cores), all idle at
// time zero. It panics when k <= 0.
func NewService(seed uint64, k int) *Service {
	if k <= 0 {
		panic("qsim: NewService with non-positive server count")
	}
	return &Service{r: rng.New(seed), freeAt: newFreeTimes(k)}
}

// SetServers changes the number of servers (cores allocated to the
// service) effective immediately: shrinking removes the servers that
// would become free last (their in-flight work migrates to the
// remaining cores' horizon is conservative enough at 100 ms decision
// granularity), growing adds servers that are free now. It panics when
// k <= 0.
func (s *Service) SetServers(k int) {
	if k <= 0 {
		panic("qsim: SetServers with non-positive server count")
	}
	for s.freeAt.k > k {
		s.freeAt.removeLatest()
	}
	for s.freeAt.k < k {
		s.freeAt.push(s.now)
	}
}

// Advance moves the simulation clock forward dur seconds without
// offering arrivals — the zero-throughput escape hatch. A configuration
// whose service time is infinite completes nothing; simulating arrivals
// against it would park +Inf among the server free times and poison
// every later window, so the machine advances the clock instead and
// scores the window as violated. dur must be positive and finite.
func (s *Service) Advance(dur float64) {
	if !positiveFinite(dur) {
		panic("qsim: Advance with non-positive or non-finite duration")
	}
	s.now += dur
}

// positiveFinite reports 0 < x < +Inf; NaN fails it.
func positiveFinite(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// chunk is the number of queries Step draws before simulating them.
// The chunk's arrival times and demand exponents live in stack arrays,
// so batching costs no allocation.
const chunk = 64

// Step simulates the window [now, now+dur) with Poisson arrivals at
// qps queries per second, mean service time meanSvc seconds and
// log-normal demand dispersion sigma, and returns the window's
// sojourn times in a new slice; it is AppendStep(nil, ...).
func (s *Service) Step(dur, qps, meanSvc, sigma float64) []float64 {
	return s.AppendStep(nil, dur, qps, meanSvc, sigma)
}

// AppendStep simulates the window [now, now+dur) with Poisson arrivals
// at qps queries per second, mean service time meanSvc seconds and
// log-normal demand dispersion sigma. It appends the sojourn times
// (queueing + service, in seconds) of every query arriving in the
// window to dst and returns the extended slice, growing it first by
// sojournCap so a window rarely reallocates; a nil dst allocates, and
// a dst with room allocates nothing. Queries may complete after the
// window ends — their full sojourn is still charged to this window,
// matching how the paper measures tail latency over whole timeslices.
// dur and meanSvc must be positive and finite, qps and sigma finite; a
// qps of zero or less is an idle window.
//
// Queries are simulated in chunks of up to 64. Each chunk first draws
// its arrival times and normal deviates in one rng.Arrivals pass, in
// the stream order of one query at a time (deviate, then the next
// gap), turns the deviates into log-normal multipliers with one
// expBatch call — bit-identical to math.Exp(mu + sigma·Norm()) drawn
// one at a time — and then runs the FCFS queue over the chunk. The
// queue consumes no randomness, so the stream position and every
// sojourn equal the one-query-at-a-time loop's.
func (s *Service) AppendStep(dst []float64, dur, qps, meanSvc, sigma float64) []float64 {
	if !positiveFinite(dur) {
		panic("qsim: Step with non-positive or non-finite duration")
	}
	if !positiveFinite(meanSvc) {
		panic("qsim: Step with non-positive or non-finite service time")
	}
	if math.IsNaN(qps) || math.IsInf(qps, 0) {
		panic("qsim: Step with non-finite arrival rate")
	}
	if math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		panic("qsim: Step with non-finite dispersion")
	}
	end := s.now + dur
	if qps > 0 {
		dst = slices.Grow(dst, sojournCap(qps*dur))
		// mu chosen so the log-normal multiplier has mean 1.
		mu := -sigma * sigma / 2
		var ts, ms [chunk]float64
		t := s.now + s.r.Exp(qps)
		for t < end {
			var n int
			n, t = s.r.Arrivals(ts[:], ms[:], t, end, qps)
			for i, z := range ms[:n] {
				ms[i] = mu + sigma*z
			}
			expBatch(ms[:n], ms[:n])
			s.freeAt.serve(ts[:n], ms[:n], meanSvc)
			dst = append(dst, ms[:n]...)
		}
	}
	s.now = end
	return dst
}

// maxSojournCap bounds the room AppendStep asks for up front. 64 Ki
// sojourns (512 KiB) is far above a 100 ms window of any service
// modelled (2 400 arrivals at most), and a window that does exceed it
// simply grows.
const maxSojournCap = 1 << 16

// sojournCap is the room AppendStep makes for a window expecting mean
// Poisson arrivals: the mean plus four standard deviations, which a
// window overflows about once in 30 000, so a fresh slice is allocated
// once instead of grown by doubling. The arrival count itself still
// comes from the stream; the capacity never changes the output.
func sojournCap(mean float64) int {
	c := mean + 4*math.Sqrt(mean)
	if !(c < maxSojournCap) { // also catches +Inf and NaN rates
		return maxSojournCap
	}
	return int(c)
}

// P99Analytic approximates the steady-state p99 sojourn time of an
// M/G/k FCFS queue with k servers, arrival rate qps, mean service time
// meanSvc and log-normal dispersion sigma. The queueing-delay tail uses
// the M/M/k Erlang-C waiting probability with an exponential tail (a
// standard heavy-traffic approximation); the service tail adds the
// log-normal p99 quantile. When the offered load reaches or exceeds
// capacity it returns +Inf.
//
// The discrete-event Step is the ground truth everywhere in the
// machine simulator; this closed form exists for the oracle baselines
// and wide parameter sweeps where simulating every candidate would
// dominate runtime. The agreement between the two is covered by tests.
func P99Analytic(k int, qps, meanSvc, sigma float64) float64 {
	if k <= 0 || meanSvc <= 0 {
		panic("qsim: P99Analytic with invalid parameters")
	}
	if qps <= 0 {
		// Idle service: p99 is just the service-time quantile.
		return svcP99(meanSvc, sigma)
	}
	mu := 1 / meanSvc
	rho := qps / (float64(k) * mu)
	if rho >= 1 {
		return math.Inf(1)
	}
	pWait := erlangC(k, qps*meanSvc)
	// P(Wq > t) ≈ pWait · exp(−(kμ−λ)t)
	decay := float64(k)*mu - qps
	wq99 := 0.0
	if pWait > 0.01 {
		wq99 = math.Log(pWait/0.01) / decay
	}
	return wq99 + svcP99(meanSvc, sigma)
}

// P99AnalyticBatch evaluates P99Analytic across candidate server
// counts ks, writing results into out (allocated when nil) and
// returning it. The Erlang-B recurrence underlying the waiting
// probability is the scalar path's only per-k loop and is a prefix
// computation — B(n) depends only on B(n−1) and the offered load — so
// the batch runs the recurrence once to max(ks) and reads each k's
// value off the shared sequence. Every per-k tail term replicates the
// scalar expression verbatim, so out[i] is bit-identical to
// P99Analytic(ks[i], ...). Cost is O(max(ks) + len(ks)) instead of the
// scalar sweep's O(Σ ks).
func P99AnalyticBatch(ks []int, qps, meanSvc, sigma float64, out []float64) []float64 {
	if meanSvc <= 0 {
		panic("qsim: P99AnalyticBatch with invalid parameters")
	}
	if out == nil {
		out = make([]float64, len(ks))
	}
	if len(out) < len(ks) {
		panic("qsim: P99AnalyticBatch output shorter than candidate list")
	}
	maxK := 0
	for _, k := range ks {
		if k <= 0 {
			panic("qsim: P99AnalyticBatch with invalid parameters")
		}
		if k > maxK {
			maxK = k
		}
	}
	if qps <= 0 {
		// Idle service: p99 is just the service-time quantile.
		p := svcP99(meanSvc, sigma)
		for i := range ks {
			out[i] = p
		}
		return out[:len(ks)]
	}
	mu := 1 / meanSvc
	a := qps * meanSvc
	// Shared Erlang-B prefix: bAt[n] is the blocking probability after n
	// recurrence steps, exactly the b the scalar erlangC holds when its
	// loop counter reaches n.
	bAt := make([]float64, maxK+1)
	bAt[0] = 1
	b := 1.0
	for n := 1; n <= maxK; n++ {
		b = a * b / (float64(n) + a*b)
		bAt[n] = b
	}
	svc := svcP99(meanSvc, sigma)
	for i, k := range ks {
		rho := qps / (float64(k) * mu)
		if rho >= 1 {
			out[i] = math.Inf(1)
			continue
		}
		var pWait float64
		if a > 0 {
			// erlangC's own load ratio a/k, not the outer rho: the two
			// can differ in the last bit and the scalar computes both.
			rhoB := a / float64(k)
			pWait = bAt[k] / (1 - rhoB + rhoB*bAt[k])
		}
		decay := float64(k)*mu - qps
		wq99 := 0.0
		if pWait > 0.01 {
			wq99 = math.Log(pWait/0.01) / decay
		}
		out[i] = wq99 + svc
	}
	return out[:len(ks)]
}

// svcP99 is the p99 of a log-normal service time with mean meanSvc.
func svcP99(meanSvc, sigma float64) float64 {
	const z99 = 2.3263478740408408
	return meanSvc * math.Exp(sigma*z99-sigma*sigma/2)
}

// erlangC returns the M/M/k probability that an arrival waits, with
// offered load a = λ/μ erlangs. Computed with the usual stable
// recurrence on the Erlang-B blocking probability.
func erlangC(k int, a float64) float64 {
	if a <= 0 {
		return 0
	}
	// Erlang-B recurrence: B(0)=1; B(n) = a·B(n−1)/(n + a·B(n−1)).
	b := 1.0
	for n := 1; n <= k; n++ {
		b = a * b / (float64(n) + a*b)
	}
	rho := a / float64(k)
	return b / (1 - rho + rho*b)
}
