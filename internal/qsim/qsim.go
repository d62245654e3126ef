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

	"cuttlesys/internal/rng"
)

// Service is the queueing state of one latency-critical service.
type Service struct {
	r      *rng.RNG
	now    float64  // simulation clock, seconds
	freeAt freeHeap // per-server next-free times
}

// NewService returns a service with k servers (cores), all idle at
// time zero. It panics when k <= 0.
func NewService(seed uint64, k int) *Service {
	if k <= 0 {
		panic("qsim: NewService with non-positive server count")
	}
	s := &Service{r: rng.New(seed)}
	s.freeAt = make(freeHeap, k)
	s.freeAt.init()
	return s
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
	for len(s.freeAt) > k {
		s.freeAt.removeLatest()
	}
	for len(s.freeAt) < k {
		s.freeAt.push(s.now)
	}
}

// Advance moves the simulation clock forward dur seconds without
// offering arrivals — the zero-throughput escape hatch. A configuration
// whose service time is infinite completes nothing; simulating arrivals
// against it would park +Inf in the server heap and poison every later
// window, so the machine advances the clock instead and scores the
// window as violated. dur must be positive.
func (s *Service) Advance(dur float64) {
	if dur <= 0 {
		panic("qsim: Advance with non-positive duration")
	}
	s.now += dur
}

// Step simulates the window [now, now+dur) with Poisson arrivals at
// qps queries per second, mean service time meanSvc seconds and
// log-normal demand dispersion sigma. It returns the sojourn times
// (queueing + service, in seconds) of every query arriving in the
// window; queries may complete after the window ends — their full
// sojourn is still charged to this window, matching how the paper
// measures tail latency over whole timeslices. dur and meanSvc must be
// positive; qps may be zero (an idle window).
func (s *Service) Step(dur, qps, meanSvc, sigma float64) []float64 {
	if dur <= 0 {
		panic("qsim: Step with non-positive duration")
	}
	if meanSvc <= 0 {
		panic("qsim: Step with non-positive service time")
	}
	end := s.now + dur
	var sojourns []float64
	if qps > 0 {
		sojourns = make([]float64, 0, sojournCap(qps*dur))
		// mu chosen so the log-normal multiplier has mean 1.
		mu := -sigma * sigma / 2
		t := s.now + s.r.Exp(qps)
		for t < end {
			demand := meanSvc * s.r.LogNormal(mu, sigma)
			// FCFS central queue: the next query runs on the server
			// that frees earliest.
			free := s.freeAt[0]
			start := math.Max(t, free)
			finish := start + demand
			s.freeAt.replaceMin(finish)
			sojourns = append(sojourns, finish-t)
			t += s.r.Exp(qps)
		}
	}
	s.now = end
	return sojourns
}

// maxSojournCap bounds the capacity Step asks for up front. 64 Ki
// sojourns (512 KiB) is far above a 100 ms window of any service
// modelled (2 400 arrivals at most), and a window that does exceed it
// simply grows.
const maxSojournCap = 1 << 16

// sojournCap sizes Step's result for a window expecting mean Poisson
// arrivals: the mean plus four standard deviations, which a window
// overflows about once in 30 000, so the slice is allocated once
// instead of grown by doubling. The arrival count itself still comes
// from the stream; the capacity never changes the output.
func sojournCap(mean float64) int {
	c := mean + 4*math.Sqrt(mean)
	if !(c < maxSojournCap) { // also catches +Inf and NaN rates
		return maxSojournCap
	}
	return int(c)
}

// freeHeap is a direct float64 min-heap of server next-free times. It
// used to be a container/heap implementation; the interface{} boxing on
// Push/Pop allocated on every server-count change and the dynamic
// dispatch sat on the per-query replaceMin path. The sift procedures
// below reproduce container/heap's up/down element-for-element (same
// comparisons, same swap order), so every heap reaches exactly the
// states the boxed version reached and Step's output is bit-identical.
type freeHeap []float64

// down sifts h[i0] toward the leaves within h[:n]; it reports whether
// the element moved. The loop mirrors container/heap's down.
func (h freeHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2] < h[j1] {
			j = j2 // right child
		}
		if !(h[j] < h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return i > i0
}

// up sifts h[j] toward the root, mirroring container/heap's up.
func (h freeHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j] < h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// init establishes heap order over the whole slice.
func (h freeHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// push adds a server next-free time.
func (h *freeHeap) push(v float64) {
	*h = append(*h, v)
	h.up(len(*h) - 1)
}

// replaceMin replaces the minimum element and restores heap order.
//
//hot:path once per simulated query
func (h freeHeap) replaceMin(v float64) {
	h[0] = v
	h.down(0, len(h))
}

// removeLatest removes the server that frees last, mirroring
// container/heap's Remove on the max element's index.
func (h *freeHeap) removeLatest() {
	idx := 0
	for i, v := range *h {
		if v > (*h)[idx] {
			idx = i
		}
	}
	n := len(*h) - 1
	if n != idx {
		(*h)[idx], (*h)[n] = (*h)[n], (*h)[idx]
		if !h.down(idx, n) {
			h.up(idx)
		}
	}
	*h = (*h)[:n]
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
