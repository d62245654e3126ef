package sim

import (
	"fmt"
	"math"

	"cuttlesys/internal/config"
	"cuttlesys/internal/perf"
	"cuttlesys/internal/power"
	"cuttlesys/internal/qsim"
	"cuttlesys/internal/workload"
)

// DefaultPeakBWGBs is the machine's DRAM bandwidth (eight DDR3/4-class
// channels for a 32-core server): past roughly 60 % utilisation,
// queueing at the memory controller inflates effective memory latency.
const DefaultPeakBWGBs = 110.0

// Spec configures a Machine.
type Spec struct {
	Seed uint64
	// LC is the latency-critical service, or nil for batch-only mixes.
	LC *workload.Profile
	// Batch are the batch jobs, one per core at full occupancy.
	Batch []*workload.Profile
	// Reconfigurable selects reconfigurable cores (frequency and energy
	// penalties apply) versus fixed cores for the baselines.
	Reconfigurable bool
	// ExtraLCs are additional latency-critical services beyond LC —
	// the paper's §VII-A generalisation ("CuttleSys is generalizable
	// to any number of LC and batch services"). Allocations for a
	// machine with extra services must fill Allocation.ExtraLC, and
	// callers drive it with RunMulti or RunMultiInto.
	ExtraLCs []*workload.Profile
}

// Machine simulates a CMP of config.NumMachineCore reconfigurable (or
// fixed) cores sharing a 32-way LLC, DRAM bandwidth and a power
// budget.
type Machine struct {
	Power *power.Model

	// pm is the machine's core design point (clock, query calibration);
	// tbl batches it over the fixed application set (batch jobs, then
	// the latency-critical services). Every IPC and traffic evaluation —
	// the bandwidth fixed point and the per-phase throughput math, at
	// partitioned and fractional LRU-shared way counts alike — is a
	// table lookup.
	pm  *perf.Model
	tbl *perf.SurfaceTable

	batch []*workload.Profile
	// peakBW is DefaultPeakBWGBs; tests in this package lower it after
	// New to drive the bandwidth fixed point into contention.
	peakBW float64
	now    float64

	// lcs are the latency-critical services, primary (service 0) first.
	lcs []lcService

	// inj, when non-nil, disrupts execution phases with hardware
	// faults (fail-stop, fail-slow). See SetInjector.
	inj Injector

	// ways memoises the unpartitioned LLC equilibrium (effectiveWays).
	ways waysMemo

	// effBatch, missBatch and svcPhase back each phase's staged
	// per-application state (phase.effBatch, phase.missBatch,
	// phase.svc); sharers is lruWays' iterate. A phase result copies
	// what it reports out of them.
	effBatch  []float64
	missBatch []float64
	svcPhase  []servicePhase
	sharers   []sharer
}

// lcService is one latency-critical service of a machine.
type lcService struct {
	app   *workload.Profile
	queue *qsim.Service // seeded Spec.Seed + k for service k
	instr float64       // instructions per query
}

// New constructs a Machine from spec. It panics on invalid profiles so
// that configuration errors surface at construction, not mid-run.
func New(spec Spec) *Machine {
	m := &Machine{
		pm:     perf.New(spec.Reconfigurable),
		Power:  power.New(spec.Reconfigurable),
		batch:  spec.Batch,
		peakBW: DefaultPeakBWGBs,
	}
	for _, app := range spec.Batch {
		if err := app.Validate(); err != nil {
			panic(fmt.Sprintf("sim: %v", err))
		}
		if app.IsLC() {
			panic(fmt.Sprintf("sim: %s is latency-critical but listed as batch", app.Name))
		}
	}
	if spec.LC == nil && len(spec.ExtraLCs) > 0 {
		panic("sim: ExtraLCs requires a primary LC service")
	}
	apps := append([]*workload.Profile(nil), m.batch...)
	if spec.LC != nil {
		services := append([]*workload.Profile{spec.LC}, spec.ExtraLCs...)
		// Half the chip starts with the services (§VII-A: a 50/50 split
		// at t=0), shared evenly among them.
		cores := config.NumMachineCore / 2 / len(services)
		for k, app := range services {
			if err := app.Validate(); err != nil {
				panic(fmt.Sprintf("sim: %v", err))
			}
			if !app.IsLC() {
				panic(fmt.Sprintf("sim: %s is not latency-critical", app.Name))
			}
			m.lcs = append(m.lcs, lcService{
				app:   app,
				queue: qsim.NewService(spec.Seed+uint64(k), cores),
				instr: m.pm.QueryInstr(app),
			})
			apps = append(apps, app)
		}
	}
	m.tbl = perf.NewSurfaceTable(m.pm, apps)
	m.effBatch = make([]float64, len(m.batch))
	m.missBatch = make([]float64, len(m.batch))
	m.svcPhase = make([]servicePhase, len(m.lcs))
	m.sharers = make([]sharer, 0, len(m.batch)+len(m.lcs))
	return m
}

// svcApp is service k's surface-table application index: the services
// follow the batch block.
func (m *Machine) svcApp(k int) int { return len(m.batch) + k }

// SurfaceStats reports the machine's surface-table work counters:
// staging/Build passes and lookups served. Fuel for the
// cuttlesys_hotpath_* metrics.
func (m *Machine) SurfaceStats() (builds, lookups uint64) { return m.tbl.Stats() }

// Services returns the machine's latency-critical services, primary
// first, in a fresh slice; it is empty on a batch-only machine.
func (m *Machine) Services() []*workload.Profile {
	out := make([]*workload.Profile, len(m.lcs))
	for k := range m.lcs {
		out[k] = m.lcs[k].app
	}
	return out
}

// LC returns the primary latency-critical service's profile, or nil.
func (m *Machine) LC() *workload.Profile {
	if len(m.lcs) == 0 {
		return nil
	}
	return m.lcs[0].app
}

// Batch returns the batch job profiles.
func (m *Machine) Batch() []*workload.Profile { return m.batch }

// Now returns the simulated wall clock in seconds.
func (m *Machine) Now() float64 { return m.now }

// FastForward advances the simulated clock to t without executing
// anything — no queries arrive, no instructions retire, no energy is
// drawn. A machine admitted to an already-running fleet is
// fast-forwarded to the fleet clock so its slice records, fault
// windows and trace events share the cluster timeline. Rewinding is
// not allowed; t at or before the current clock is a no-op.
func (m *Machine) FastForward(t float64) {
	if t > m.now {
		m.now = t
	}
}

// PhaseResult reports one phase of execution under a fixed allocation.
type PhaseResult struct {
	Dur float64

	// BatchBIPS is each job's achieved throughput in billions of
	// instructions per second, already scaled by time multiplexing;
	// zero for gated jobs.
	BatchBIPS []float64
	// BatchInstrB is the billions of instructions each job executed.
	BatchInstrB []float64

	// BatchPowerW is each job's per-core power draw in watts at its
	// configuration (unscaled by multiplexing; zero for gated jobs) —
	// what a per-core power sensor would report during profiling.
	BatchPowerW []float64

	// PowerW is the average chip power over the phase.
	PowerW float64
	// Inflation is the converged memory-latency inflation from DRAM
	// bandwidth contention (1 = uncontended).
	Inflation float64
	// EffWays are the effective LLC ways each batch job observed.
	EffWays []float64

	// LC holds one result per latency-critical service, primary first;
	// empty on a batch-only machine.
	LC []LCResult

	// FailedLC (service 0's cores) and FailedBatch report fail-stopped
	// cores during the phase — the machine-check telemetry a runtime
	// can act on. Both are zero on healthy hardware.
	FailedLC    int
	FailedBatch int
}

// LCResult is one latency-critical service's share of a phase.
type LCResult struct {
	// Sojourns are the service's query latencies (seconds) for queries
	// arriving in this phase. From RunMultiInto it is a capped window
	// of the caller's buffer and lives as long as the caller leaves that
	// buffer alone.
	Sojourns []float64
	// MeanSvc is the mean per-query service time under this
	// allocation, seconds.
	MeanSvc float64
	// CorePowerW is one of the service's cores' power draw in watts, at
	// the assignment's Core.
	CorePowerW float64
	// EffWays is the service's effective LLC ways.
	EffWays float64
}

// Run executes one phase of durSec seconds under alloc with the LC
// service offered qps queries per second. The allocation is validated;
// errors indicate scheduler bugs and panic. Machines with extra
// services must use RunMulti.
func (m *Machine) Run(alloc Allocation, durSec, qps float64) PhaseResult {
	if len(m.lcs) > 1 {
		panic("sim: Run on a multi-service machine; use RunMulti")
	}
	return m.RunMulti(alloc, durSec, []float64{qps})
}

// RunMulti executes one phase with one offered load per
// latency-critical service (primary first). On a single-service
// machine it is equivalent to Run. The result and its sojourns are
// fresh slices; RunMultiInto is the same phase in the caller's
// storage.
func (m *Machine) RunMulti(alloc Allocation, durSec float64, qps []float64) PhaseResult {
	var res PhaseResult
	m.RunMultiInto(&res, &alloc, durSec, qps, make([][]float64, len(m.lcs)))
	return res
}

// RunMultiInto is RunMulti in caller-owned storage. It overwrites every
// field of *res, reusing each of res's slices that has the capacity
// (and allocating the ones that do not), so a caller that keeps one
// PhaseResult per phase it needs alive at once allocates nothing for
// results once they have grown to the machine's shape: such a result
// is valid until the caller's next RunMultiInto into it. The machine
// reads alloc and never keeps it. soj holds one sojourn buffer per
// service (possibly nil), primary first: service k's sojourns are
// appended to soj[k], which is updated to the grown buffer, and
// res.LC[k].Sojourns is a capped window of it (buf[a:b:b]), so
// appending to a window never writes into the next phase's samples.
func (m *Machine) RunMultiInto(res *PhaseResult, alloc *Allocation, durSec float64, qps []float64, soj [][]float64) {
	if len(soj) < len(m.lcs) {
		panic(fmt.Sprintf("sim: %d sojourn buffers for %d services", len(soj), len(m.lcs)))
	}
	ph := m.newPhase(alloc, durSec, qps)
	m.effectiveWays(&ph)
	m.stageMisses(&ph)

	// Converge the bandwidth fixed point: IPCs determine DRAM traffic,
	// which determines latency inflation, which feeds back into IPCs.
	// Traffic is a pure function of the inflation it is evaluated at, so
	// an iteration that returns the inflation it started from has
	// reached the fixed point and every later one would recompute it
	// bit for bit. An uncontended machine stops after one pass.
	inflation := 1.0
	for iter := 0; iter < 3; iter++ {
		next := bandwidthInflation(m.dramTraffic(&ph, inflation) / m.peakBW)
		if next == inflation {
			break
		}
		inflation = next
	}
	m.execute(res, &ph, durSec, inflation, soj)
}

// phase is one RunMulti call's resolved inputs, shared by the
// bandwidth fixed point and the execution that follows it.
type phase struct {
	alloc *Allocation
	qps   []float64

	d         Disruption
	deadLC    int
	deadBatch int

	// The batch jobs' LLC occupancies (effectiveWays) and the miss
	// ratios at them (stageMisses): the phase's only miss-curve
	// evaluations, read by every table lookup of the fixed point and
	// the execution.
	effBatch  []float64
	missBatch []float64

	// svc holds one entry per latency-critical service, primary first.
	svc []servicePhase
}

// servicePhase is one latency-critical service's resolved inputs for a
// phase.
type servicePhase struct {
	LCAssign          // Allocation.Service(k)
	servers   int     // live cores
	freq      float64 // clock for IPC and service time, GHz
	powerFreq float64 // clock the power model draws at, GHz
	eff       float64 // LLC occupancy (effectiveWays)
	miss      float64 // LLC miss ratio at eff (stageMisses)
}

// ValidateAllocation reports whether alloc is runnable on this
// machine: its structural invariants (Allocation.Validate) plus one
// assignment per extra service. RunMulti panics on the same error.
func (m *Machine) ValidateAllocation(alloc *Allocation) error {
	if err := alloc.Validate(len(m.batch), len(m.lcs) > 0); err != nil {
		return err
	}
	if extras := max(len(m.lcs)-1, 0); len(alloc.ExtraLC) != extras {
		return fmt.Errorf("sim: allocation has %d extra-service assignments, machine has %d extra services",
			len(alloc.ExtraLC), extras)
	}
	return nil
}

// newPhase validates a RunMulti call and resolves the phase's hardware
// faults and each service's inputs; the caller fills in the LLC
// occupancies and miss ratios. Service 0 differs from the others in
// three ways, all stated here: it alone takes the LCFreqGHz override,
// it alone loses cores to fail-stop and is slowed by fail-slow, and it
// draws power at its running clock.
func (m *Machine) newPhase(alloc *Allocation, durSec float64, qps []float64) phase {
	if !(durSec > 0) {
		panic("sim: Run with non-positive duration")
	}
	if err := m.ValidateAllocation(alloc); err != nil {
		panic(err)
	}
	if len(qps) < len(m.lcs) {
		panic(fmt.Sprintf("sim: %d offered loads for %d services", len(qps), len(m.lcs)))
	}
	ph := phase{alloc: alloc, qps: qps, svc: m.svcPhase}

	// Hardware faults for this phase (zero Disruption when healthy).
	if m.inj != nil {
		ph.d = m.inj.Disrupt(m.now).normalized()
	} else {
		ph.d = Disruption{SlowLC: 1, SlowBatch: 1}
	}
	for k := range ph.svc {
		a := alloc.Service(k)
		s := servicePhase{LCAssign: a, servers: a.Cores, freq: m.pm.FreqGHz()}
		// EXPERIMENTS.md Deviation 8(a), kept until a report regeneration:
		// services past 0 draw power at 4.0 GHz, not at their IPC clock.
		s.powerFreq = config.BaseFreqGHz
		if k == 0 {
			s.freq = m.freqFor(alloc.LCFreqGHz) * ph.d.SlowLC
			s.powerFreq = s.freq
			// The service keeps at least one live core; a machine losing
			// every LC core is outside the model (the whole box is down).
			if ph.d.FailedLC > 0 {
				s.servers = max(a.Cores-ph.d.FailedLC, 1)
			}
			ph.deadLC = a.Cores - s.servers
		}
		ph.svc[k] = s
	}
	ph.deadBatch = ph.d.FailedBatch
	if bc := alloc.batchCores(); ph.deadBatch > bc {
		ph.deadBatch = bc
	}
	if ph.deadBatch < 0 {
		ph.deadBatch = 0
	}
	return ph
}

// stageMisses evaluates each running application's miss curve once at
// its phase occupancy. A fractional way count costs a math.Pow, and
// the bandwidth fixed point and the execution read the same occupancy
// two to four times per pass; the ratios are staged per phase rather
// than memoised in the table, whose reads then stay free of writes
// other than the lookup counter.
func (m *Machine) stageMisses(ph *phase) {
	ph.missBatch = m.missBatch
	for i, b := range ph.alloc.Batch {
		if !b.Gated {
			ph.missBatch[i] = m.tbl.MissRatioAt(i, ph.effBatch[i])
		}
	}
	for k := range ph.svc {
		s := &ph.svc[k]
		s.miss = m.tbl.MissRatioAt(m.svcApp(k), s.eff)
	}
}

// dramTraffic is one pass of the bandwidth fixed point: the machine's
// DRAM traffic in GB/s when memory latency is inflated by inflation.
func (m *Machine) dramTraffic(ph *phase, inflation float64) float64 {
	alloc, d := ph.alloc, ph.d
	traffic := 0.0
	for i, b := range alloc.Batch {
		if b.Gated {
			continue
		}
		f := m.freqFor(b.FreqGHz) * d.SlowBatch
		ipc := m.tbl.IPCAt(i, b.Core, ph.missBatch[i], inflation, f)
		traffic += ipc * f * m.tbl.MissPerInstr(i, ph.missBatch[i]) * 64
	}
	for k := range ph.svc {
		s, app := &ph.svc[k], m.svcApp(k)
		perCore := m.tbl.TrafficAt(app, s.Core, s.miss, inflation)
		ipc := m.tbl.IPCAt(app, s.Core, s.miss, inflation, s.freq)
		meanSvc := m.lcs[k].instr / (ipc * s.freq * 1e9)
		util := svcUtilisation(ph.qps[k], meanSvc, float64(s.servers))
		traffic += perCore * float64(s.servers) * util
	}
	return traffic
}

// execute runs the phase at the converged inflation into res: batch
// progress, the latency-critical queues (appending to soj, as
// RunMultiInto documents), and chip power.
func (m *Machine) execute(res *PhaseResult, ph *phase, durSec, inflation float64, soj [][]float64) {
	alloc, d, deadBatch := ph.alloc, ph.d, ph.deadBatch

	*res = PhaseResult{
		Dur:         durSec,
		BatchBIPS:   zeroed(res.BatchBIPS, len(m.batch)),
		BatchInstrB: zeroed(res.BatchInstrB, len(m.batch)),
		BatchPowerW: zeroed(res.BatchPowerW, len(m.batch)),
		EffWays:     append(res.EffWays[:0], ph.effBatch...),
		Inflation:   inflation,
		LC:          zeroed(res.LC, len(ph.svc)),
	}

	mux := alloc.MultiplexFactor()
	if deadBatch > 0 {
		// Surviving batch jobs time-multiplex onto the live cores.
		live := alloc.batchCores() - deadBatch
		if active := alloc.activeBatch(); active > 0 && live < active {
			mux = 0
			if live > 0 {
				mux = float64(live) / float64(active)
			}
		}
	}
	totalPower := 0.0

	// Batch jobs.
	activeCoresUsed := 0
	for i, b := range alloc.Batch {
		if b.Gated {
			totalPower += power.GatedCoreW
			continue
		}
		f := m.freqFor(b.FreqGHz) * d.SlowBatch
		ipc := m.tbl.IPCAt(i, b.Core, ph.missBatch[i], inflation, f)
		bips := ipc * f * mux
		res.BatchBIPS[i] = bips
		res.BatchInstrB[i] = bips * durSec
		corePower := m.Power.CoreAtDVFS(m.batch[i], b.Core, ipc, f)
		res.BatchPowerW[i] = corePower
		totalPower += corePower * mux
		activeCoresUsed++
	}
	// Batch cores left idle (more cores than active jobs) sit gated;
	// fail-stopped cores draw nothing at all.
	if spare := alloc.batchCores() - deadBatch - activeCoresUsed; spare > 0 {
		totalPower += float64(spare) * power.GatedCoreW
	}

	// Latency-critical services, primary first.
	for k := range ph.svc {
		s, lc, app, r := &ph.svc[k], &m.lcs[k], m.svcApp(k), &res.LC[k]
		lc.queue.SetServers(s.servers)
		ipc := m.tbl.IPCAt(app, s.Core, s.miss, inflation, s.freq)
		rateIPC := ipc
		if s.HalfBlend {
			rateIPC = (ipc + m.tbl.IPCAt(app, opposite(s.Core), s.miss, inflation, s.freq)) / 2
		}
		r.MeanSvc = lc.instr / (rateIPC * s.freq * 1e9)
		r.EffWays = s.eff
		sj := soj[k]
		start := len(sj)
		if r.MeanSvc > 0 && !math.IsInf(r.MeanSvc, 1) {
			sj = lc.queue.AppendStep(sj, durSec, ph.qps[k], r.MeanSvc, lc.app.QuerySigma)
		} else {
			// Zero-throughput configuration (rateIPC or the clock is 0):
			// the service completes nothing. Advance the queue clock
			// without simulating arrivals — qsim.Step rejects an
			// infinite service time, which would park +Inf among the
			// server free times and poison every later phase — and
			// report one unbounded sojourn so the slice scores as an
			// SLO violation rather than feeding NaN arithmetic
			// downstream.
			lc.queue.Advance(durSec)
			if ph.qps[k] > 0 {
				sj = append(sj, math.Inf(1))
			}
		}
		soj[k] = sj
		r.Sojourns = sj[start:len(sj):len(sj)]
		util := svcUtilisation(ph.qps[k], r.MeanSvc, float64(s.servers))
		// Dynamic power scales with how busy the service's cores actually
		// are. The reported per-core sample is for Core itself — what a
		// sensor on one of the Core-configured cores would read.
		r.CorePowerW = m.Power.CoreAtDVFS(lc.app, s.Core, ipc*util, s.powerFreq)
		if s.HalfBlend {
			other := opposite(s.Core)
			otherIPC := m.tbl.IPCAt(app, other, s.miss, inflation, s.freq)
			otherPower := m.Power.CoreAtDVFS(lc.app, other, otherIPC*util, s.powerFreq)
			totalPower += float64(s.servers) * (r.CorePowerW + otherPower) / 2
		} else {
			totalPower += float64(s.servers) * r.CorePowerW
		}
	}

	totalPower += m.Power.LLC(config.LLCWays) + m.Power.Uncore(config.NumMachineCore)
	res.PowerW = totalPower
	res.FailedLC = ph.deadLC
	res.FailedBatch = deadBatch
	m.now += durSec
}

// zeroed returns s resized to n zero elements, reusing its backing
// array when it has the capacity.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// svcUtilisation estimates a service's busy fraction from offered load
// and per-query service time. An infinite or undefined service time —
// a zero-throughput configuration — saturates to 1 under any load (the
// servers never drain) and idles at 0 without load, instead of minting
// 0·Inf = NaN. For finite service times this is exactly the M/M/k-style
// offered-load cap the fixed point has always used.
func svcUtilisation(qps, meanSvc, cores float64) float64 {
	if math.IsInf(meanSvc, 1) || math.IsNaN(meanSvc) {
		if qps > 0 {
			return 1
		}
		return 0
	}
	return math.Min(1, qps*meanSvc/cores)
}

// opposite is the profiling blend's other extreme (§VIII-A1): the
// narrowest configuration for any core but the narrowest, which pairs
// with the widest.
func opposite(c config.Core) config.Core {
	if c == config.Narrowest {
		return config.Widest
	}
	return config.Narrowest
}

// freqFor resolves a per-assignment frequency override against the
// design's nominal clock.
func (m *Machine) freqFor(override float64) float64 {
	if override > 0 {
		return override
	}
	return m.pm.FreqGHz()
}

// effectiveWays computes the LLC ways each application observes,
// writing the batch jobs' into ph.effBatch (the machine's m.effBatch)
// and each service's into ph.svc[k].eff. Under partitioning each application sees its
// allocation. Without partitioning all active applications contend for
// the 32 ways with occupancy proportional to per-core capacity demand
// (working-set size), the first-order behaviour of shared LRU; that
// equilibrium is memoised per machine (waysMemo).
func (m *Machine) effectiveWays(ph *phase) {
	alloc := ph.alloc
	ph.effBatch = m.effBatch
	clear(ph.effBatch)
	if !alloc.NoPartition {
		for i, b := range alloc.Batch {
			if !b.Gated {
				ph.effBatch[i] = b.Cache.Ways()
			}
		}
		for k := range ph.svc {
			ph.svc[k].eff = ph.svc[k].Cache.Ways()
		}
		return
	}
	if !m.ways.get(alloc, ph.effBatch, ph.svc) {
		m.lruWays(alloc, ph.effBatch, ph.svc)
		m.ways.put(alloc, ph.effBatch, ph.svc)
	}
}

// lruWays solves the unpartitioned equilibrium of alloc, writing the
// batch jobs' occupancies into batch (zeroed by the caller) and each
// service's into svc[k].eff.
func (m *Machine) lruWays(alloc *Allocation, batch []float64, svc []servicePhase) {
	// Unpartitioned LRU equilibrium: an application's occupancy is
	// proportional to its insertion (miss) rate, and its miss rate
	// rises as its occupancy shrinks — a negative feedback this fixed
	// point captures. Access weights are per-core miss traffic; a
	// latency-critical service inserts from all of its cores into one
	// shared working set. Sharers are the active batch jobs, then the
	// services in order.
	sharers := m.sharers[:0]
	for i, b := range alloc.Batch {
		if b.Gated {
			continue
		}
		app := m.batch[i]
		sharers = append(sharers, sharer{
			weight: app.MemFrac * app.L1MissRate,
			app:    app,
		})
	}
	for k := range svc {
		app := m.lcs[k].app
		sharers = append(sharers, sharer{
			weight: app.MemFrac * app.L1MissRate * float64(svc[k].Cores),
			app:    app,
		})
	}
	m.sharers = sharers
	if len(sharers) == 0 {
		return
	}
	for i := range sharers {
		sharers[i].ways = float64(config.LLCWays) / float64(len(sharers))
	}
	// Reuse keeps a baseline share alive — a small, hot working set
	// re-references its lines long before they age out of the LRU
	// stack — so equilibrium occupancy blends an equal share with the
	// insertion-rate share.
	const reuseFloor = 0.25
	equal := float64(config.LLCWays) / float64(len(sharers))
	for iter := 0; iter < 8; iter++ {
		total := 0.0
		for i := range sharers {
			sharers[i].missed = sharers[i].app.MissRatio(sharers[i].ways)
			total += sharers[i].weight * sharers[i].missed
		}
		if total <= 0 {
			break
		}
		for i := range sharers {
			insertion := float64(config.LLCWays) * sharers[i].weight * sharers[i].missed / total
			target := reuseFloor*equal + (1-reuseFloor)*insertion
			sharers[i].ways = 0.5*sharers[i].ways + 0.5*target
		}
	}
	si := 0
	for i, b := range alloc.Batch {
		if b.Gated {
			continue
		}
		batch[i] = sharers[si].ways
		si++
	}
	for k := range svc {
		svc[k].eff = sharers[si+k].ways
	}
}

// sharer is one application contending for the unpartitioned LLC in
// lruWays' fixed point.
type sharer struct {
	weight float64
	app    *workload.Profile
	ways   float64
	missed float64 // app.MissRatio(ways) at the current iterate
}

// waysMemoSize is how many unpartitioned equilibria a machine keeps. A
// baseline's slice alternates between two occupancy patterns — it
// profiles with every core on, then runs the gating it decided — so two
// entries serve both.
const waysMemoSize = 2

// waysMemo caches lruWays per machine. The equilibrium reads nothing of
// an allocation but which batch jobs are gated and each service's core
// count (the machine's applications are fixed at New), so an entry
// keyed on exactly those returns the solved occupancies bit for bit.
// Entries keep their buffers: a miss overwrites the least recently used
// one in place.
type waysMemo struct {
	entries [waysMemoSize]waysEntry
	clock   uint64 // last-use stamp source
}

type waysEntry struct {
	used uint64 // last-use stamp; 0 marks an empty entry

	// Key.
	gated []bool
	cores []int // per service, primary first

	// Solved occupancies.
	batch []float64
	lc    []float64 // per service
}

func (e *waysEntry) matches(alloc *Allocation, svc []servicePhase) bool {
	if e.used == 0 || len(e.gated) != len(alloc.Batch) || len(e.cores) != len(svc) {
		return false
	}
	for i, b := range alloc.Batch {
		if e.gated[i] != b.Gated {
			return false
		}
	}
	for k := range svc {
		if e.cores[k] != svc[k].Cores {
			return false
		}
	}
	return true
}

// get copies alloc's cached occupancies into batch and svc[k].eff; it
// reports false on a miss.
func (w *waysMemo) get(alloc *Allocation, batch []float64, svc []servicePhase) bool {
	for i := range w.entries {
		if e := &w.entries[i]; e.matches(alloc, svc) {
			w.clock++
			e.used = w.clock
			copy(batch, e.batch)
			for k := range svc {
				svc[k].eff = e.lc[k]
			}
			return true
		}
	}
	return false
}

// put records alloc's solved occupancies.
func (w *waysMemo) put(alloc *Allocation, batch []float64, svc []servicePhase) {
	e := &w.entries[0]
	for i := range w.entries {
		if w.entries[i].used < e.used {
			e = &w.entries[i]
		}
	}
	w.clock++
	e.used = w.clock
	e.gated = e.gated[:0]
	for _, b := range alloc.Batch {
		e.gated = append(e.gated, b.Gated)
	}
	e.cores, e.lc = e.cores[:0], e.lc[:0]
	for k := range svc {
		e.cores = append(e.cores, svc[k].Cores)
		e.lc = append(e.lc, svc[k].eff)
	}
	e.batch = append(e.batch[:0], batch...)
}

// bandwidthInflation maps DRAM bandwidth utilisation to a memory
// latency multiplier: free below ~60 % utilisation, then quadratic
// queueing growth, capped to keep the fixed point stable.
func bandwidthInflation(util float64) float64 {
	if util <= 0.6 {
		return 1
	}
	infl := 1 + 2.5*(util-0.6)*(util-0.6)
	if infl > 6 {
		infl = 6
	}
	return infl
}

// MaxPowerW returns the machine's reference power budget (§VII-A): the
// average per-core power across all jobs running on reconfigurable
// cores in the widest configuration, scaled to the full core count,
// plus LLC and uncore. Experiments express power caps as fractions of
// this value.
func (m *Machine) MaxPowerW() float64 {
	refPerf := perf.New(true)
	refPower := power.New(true)
	sum, n := 0.0, 0
	for _, app := range m.batch {
		ipc := refPerf.IPC(app, config.Widest, config.FourWays.Ways(), 1)
		sum += refPower.Core(app, config.Widest, ipc)
		n++
	}
	if lc := m.LC(); lc != nil {
		ipc := refPerf.IPC(lc, config.Widest, config.FourWays.Ways(), 1)
		p := refPower.Core(lc, config.Widest, ipc)
		// The LC service holds half the machine at t=0 (§VII-A), so it
		// contributes that many per-core samples to the average.
		k := config.NumMachineCore / 2
		sum += p * float64(k)
		n += k
	}
	if n == 0 {
		return m.Power.LLC(config.LLCWays) + m.Power.Uncore(config.NumMachineCore)
	}
	return sum/float64(n)*float64(config.NumMachineCore) +
		refPower.LLC(config.LLCWays) + refPower.Uncore(config.NumMachineCore)
}
