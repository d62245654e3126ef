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
	// PeakBWGBs defaults to DefaultPeakBWGBs.
	PeakBWGBs float64
	// InitLCCores is the LC service's starting core allocation;
	// defaults to half of config.NumMachineCore (§VII-A: 50/50 split at
	// t=0) shared evenly
	// with any extra services.
	InitLCCores int
	// ExtraLCs are additional latency-critical services beyond LC —
	// the paper's §VII-A generalisation ("CuttleSys is generalizable
	// to any number of LC and batch services"). Allocations for a
	// machine with extra services must fill Allocation.ExtraLC, and
	// callers drive it with RunMulti.
	ExtraLCs []*workload.Profile
}

// Machine simulates a CMP of reconfigurable (or fixed) cores sharing a
// 32-way LLC, DRAM bandwidth and a power budget.
type Machine struct {
	Power *power.Model

	// pm is the machine's core design point (clock, query calibration);
	// tbl batches it over the fixed application set (batch jobs, then
	// the LC service, then extras). Every IPC and traffic evaluation —
	// the bandwidth fixed point and the per-phase throughput math, at
	// partitioned and fractional LRU-shared way counts alike — is a
	// table lookup.
	pm  *perf.Model
	tbl *perf.SurfaceTable

	lc         *workload.Profile
	batch      []*workload.Profile
	nCores     int
	peakBW     float64
	svc        *qsim.Service
	queryInstr float64
	now        float64

	extraLCs   []*workload.Profile
	extraSvcs  []*qsim.Service
	extraInstr []float64

	// inj, when non-nil, disrupts execution phases with hardware
	// faults (fail-stop, fail-slow). See SetInjector.
	inj Injector

	// ways memoises the unpartitioned LLC equilibrium (effectiveWays).
	ways waysMemo

	// missBatch and missExtra back each phase's staged miss ratios.
	missBatch, missExtra []float64
}

// New constructs a Machine from spec. It panics on invalid profiles so
// that configuration errors surface at construction, not mid-run.
func New(spec Spec) *Machine {
	bw := spec.PeakBWGBs
	if bw == 0 {
		bw = DefaultPeakBWGBs
	}
	m := &Machine{
		pm:     perf.New(spec.Reconfigurable),
		Power:  power.New(spec.Reconfigurable),
		lc:     spec.LC,
		batch:  spec.Batch,
		nCores: config.NumMachineCore,
		peakBW: bw,
	}
	for _, app := range spec.Batch {
		if err := app.Validate(); err != nil {
			panic(fmt.Sprintf("sim: %v", err))
		}
		if app.IsLC() {
			panic(fmt.Sprintf("sim: %s is latency-critical but listed as batch", app.Name))
		}
	}
	if spec.LC != nil {
		if err := spec.LC.Validate(); err != nil {
			panic(fmt.Sprintf("sim: %v", err))
		}
		if !spec.LC.IsLC() {
			panic(fmt.Sprintf("sim: %s is not latency-critical", spec.LC.Name))
		}
		k := spec.InitLCCores
		if k == 0 {
			k = config.NumMachineCore / 2 / (1 + len(spec.ExtraLCs))
		}
		m.svc = qsim.NewService(spec.Seed, k)
		m.queryInstr = m.pm.QueryInstr(spec.LC)
	}
	for i, x := range spec.ExtraLCs {
		if spec.LC == nil {
			panic("sim: ExtraLCs requires a primary LC service")
		}
		if err := x.Validate(); err != nil {
			panic(fmt.Sprintf("sim: %v", err))
		}
		if !x.IsLC() {
			panic(fmt.Sprintf("sim: %s is not latency-critical", x.Name))
		}
		k := spec.InitLCCores
		if k == 0 {
			k = config.NumMachineCore / 2 / (1 + len(spec.ExtraLCs))
		}
		m.extraLCs = append(m.extraLCs, x)
		m.extraSvcs = append(m.extraSvcs, qsim.NewService(spec.Seed+uint64(i)+1, k))
		m.extraInstr = append(m.extraInstr, m.pm.QueryInstr(x))
	}
	apps := make([]*workload.Profile, 0, len(m.batch)+1+len(m.extraLCs))
	apps = append(apps, m.batch...)
	if m.lc != nil {
		apps = append(apps, m.lc)
	}
	apps = append(apps, m.extraLCs...)
	m.tbl = perf.NewSurfaceTable(m.pm, apps)
	m.missBatch = make([]float64, len(m.batch))
	m.missExtra = make([]float64, len(m.extraLCs))
	return m
}

// Surface-table application indices: batch job i is app i, the LC
// service follows the batch block, extras follow the LC service.
func (m *Machine) lcAppIdx() int         { return len(m.batch) }
func (m *Machine) extraAppIdx(x int) int { return len(m.batch) + 1 + x }

// SurfaceStats reports the machine's surface-table work counters:
// staging/Build passes and lookups served. Fuel for the
// cuttlesys_hotpath_* metrics.
func (m *Machine) SurfaceStats() (builds, lookups uint64) { return m.tbl.Stats() }

// ExtraLCs returns the machine's additional latency-critical services.
func (m *Machine) ExtraLCs() []*workload.Profile { return m.extraLCs }

// NCores returns the machine's core count.
func (m *Machine) NCores() int { return m.nCores }

// LC returns the latency-critical service profile, or nil.
func (m *Machine) LC() *workload.Profile { return m.lc }

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

	// Sojourns are the LC queries' total latencies (seconds) for
	// queries arriving in this phase; empty without an LC service. From
	// RunMultiAppend it is a capped window of the caller's buffer and
	// lives as long as the caller leaves that buffer alone.
	Sojourns []float64
	// LCMeanSvc is the mean per-query service time under this
	// allocation, seconds.
	LCMeanSvc float64

	// BatchPowerW is each job's per-core power draw in watts at its
	// configuration (unscaled by multiplexing; zero for gated jobs) —
	// what a per-core power sensor would report during profiling.
	BatchPowerW []float64
	// LCCorePowerW is one LC core's power draw in watts.
	LCCorePowerW float64

	// PowerW is the average chip power over the phase.
	PowerW float64
	// Inflation is the converged memory-latency inflation from DRAM
	// bandwidth contention (1 = uncontended).
	Inflation float64
	// EffWays are the effective LLC ways each batch job observed.
	EffWays []float64
	// EffWaysLC is the LC service's effective LLC ways.
	EffWaysLC float64

	// Per-extra-service results (multi-service machines), in
	// Spec.ExtraLCs order.
	ExtraSojourns  [][]float64
	ExtraMeanSvc   []float64
	ExtraLCPowerW  []float64
	ExtraEffWaysLC []float64

	// FailedLC and FailedBatch report fail-stopped cores during the
	// phase — the machine-check telemetry a runtime can act on. Both
	// are zero on healthy hardware.
	FailedLC    int
	FailedBatch int
}

// Run executes one phase of durSec seconds under alloc with the LC
// service offered qps queries per second. The allocation is validated;
// errors indicate scheduler bugs and panic. Machines with extra
// services must use RunMulti.
func (m *Machine) Run(alloc Allocation, durSec, qps float64) PhaseResult {
	if len(m.extraLCs) > 0 {
		panic("sim: Run on a multi-service machine; use RunMulti")
	}
	return m.RunMulti(alloc, durSec, []float64{qps})
}

// RunMulti executes one phase with one offered load per
// latency-critical service (primary first). On a single-service
// machine it is equivalent to Run. The sojourns land in fresh slices;
// RunMultiAppend is the same phase appending to the caller's buffers.
func (m *Machine) RunMulti(alloc Allocation, durSec float64, qps []float64) PhaseResult {
	var soj []float64
	return m.RunMultiAppend(alloc, durSec, qps, &soj, make([][]float64, len(m.extraLCs)))
}

// RunMultiAppend is RunMulti with caller-owned sojourn buffers: the
// primary service's sojourns are appended to *soj and extra service
// x's to extraSoj[x] (extraSoj must have one buffer, possibly nil, per
// extra service), and the result's Sojourns and ExtraSojourns are
// capped windows of those buffers (buf[a:b:b]), so appending to a
// window never writes into the next phase's samples. A caller that
// reuses its buffers across phases allocates nothing for sojourns
// once they have grown to a phase's worth.
func (m *Machine) RunMultiAppend(alloc Allocation, durSec float64, qps []float64, soj *[]float64, extraSoj [][]float64) PhaseResult {
	ph := m.newPhase(&alloc, durSec, qps)
	ph.effBatch, ph.effLC, ph.effExtra = m.effectiveWays(&alloc)
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
	return m.execute(&ph, durSec, inflation, soj, extraSoj)
}

// phase is one RunMulti call's resolved inputs, shared by the
// bandwidth fixed point and the execution that follows it.
type phase struct {
	alloc *Allocation
	qps   []float64
	qps0  float64 // the primary service's offered load; 0 without one

	d         Disruption
	lcServers int // live primary-service cores
	deadLC    int
	deadBatch int

	// LLC occupancies from effectiveWays.
	effBatch []float64
	effLC    float64
	effExtra []float64

	// LLC miss ratios at those occupancies (stageMisses): the phase's
	// only miss-curve evaluations, read by every table lookup of the
	// fixed point and the execution.
	missBatch []float64
	missLC    float64
	missExtra []float64
}

// newPhase validates a RunMulti call and resolves the phase's hardware
// faults; the caller fills in the LLC occupancies.
func (m *Machine) newPhase(alloc *Allocation, durSec float64, qps []float64) phase {
	if durSec <= 0 {
		panic("sim: Run with non-positive duration")
	}
	if err := alloc.Validate(len(m.batch), m.lc != nil, m.nCores); err != nil {
		panic(err)
	}
	if len(alloc.ExtraLC) != len(m.extraLCs) {
		panic(fmt.Sprintf("sim: allocation has %d extra-service assignments, machine has %d services",
			len(alloc.ExtraLC), len(m.extraLCs)))
	}
	want := 1
	if m.lc == nil {
		want = 0
	}
	want += len(m.extraLCs)
	if len(qps) < want {
		panic(fmt.Sprintf("sim: %d offered loads for %d services", len(qps), want))
	}
	ph := phase{alloc: alloc, qps: qps}
	if len(qps) > 0 {
		ph.qps0 = qps[0]
	}

	// Hardware faults for this phase (zero Disruption when healthy).
	if m.inj != nil {
		ph.d = m.inj.Disrupt(m.now).normalized()
	} else {
		ph.d = Disruption{SlowLC: 1, SlowBatch: 1}
	}
	// The service keeps at least one live core; a machine losing every
	// LC core is outside the model (the whole box is down).
	ph.lcServers = alloc.LCCores
	if m.lc != nil && alloc.LCCores > 0 && ph.d.FailedLC > 0 {
		ph.lcServers = alloc.LCCores - ph.d.FailedLC
		if ph.lcServers < 1 {
			ph.lcServers = 1
		}
	}
	ph.deadLC = alloc.LCCores - ph.lcServers
	ph.deadBatch = ph.d.FailedBatch
	if bc := alloc.batchCores(m.nCores); ph.deadBatch > bc {
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
	alloc := ph.alloc
	ph.missBatch, ph.missExtra = m.missBatch, m.missExtra
	for i, b := range alloc.Batch {
		if !b.Gated {
			ph.missBatch[i] = m.tbl.MissRatioAt(i, ph.effBatch[i])
		}
	}
	if m.lc != nil && alloc.LCCores > 0 {
		ph.missLC = m.tbl.MissRatioAt(m.lcAppIdx(), ph.effLC)
	}
	for x := range alloc.ExtraLC {
		ph.missExtra[x] = m.tbl.MissRatioAt(m.extraAppIdx(x), ph.effExtra[x])
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
	if m.lc != nil && alloc.LCCores > 0 {
		perCore := m.tbl.TrafficAt(m.lcAppIdx(), alloc.LCCore, ph.missLC, inflation)
		util := m.lcUtilisation(alloc, ph.qps0, ph.missLC, inflation, ph.lcServers, d.SlowLC)
		traffic += perCore * float64(ph.lcServers) * util
	}
	nominal := m.pm.FreqGHz()
	for x, e := range alloc.ExtraLC {
		perCore := m.tbl.TrafficAt(m.extraAppIdx(x), e.Core, ph.missExtra[x], inflation)
		ipc := m.tbl.IPCAt(m.extraAppIdx(x), e.Core, ph.missExtra[x], inflation, nominal)
		meanSvc := m.extraInstr[x] / (ipc * nominal * 1e9)
		util := svcUtilisation(ph.qps[x+1], meanSvc, float64(e.Cores))
		traffic += perCore * float64(e.Cores) * util
	}
	return traffic
}

// execute runs the phase at the converged inflation: batch progress,
// the latency-critical queues (appending to soj and extraSoj, as
// RunMultiAppend documents), and chip power.
func (m *Machine) execute(ph *phase, durSec, inflation float64, soj *[]float64, extraSoj [][]float64) PhaseResult {
	alloc, qps, qps0, d := ph.alloc, ph.qps, ph.qps0, ph.d
	lcServers, deadLC, deadBatch := ph.lcServers, ph.deadLC, ph.deadBatch
	effBatch, effLC, effExtra := ph.effBatch, ph.effLC, ph.effExtra

	res := PhaseResult{
		Dur:         durSec,
		BatchBIPS:   make([]float64, len(m.batch)),
		BatchInstrB: make([]float64, len(m.batch)),
		BatchPowerW: make([]float64, len(m.batch)),
		EffWays:     effBatch,
		EffWaysLC:   effLC,
		Inflation:   inflation,
	}

	mux := alloc.MultiplexFactor(m.nCores)
	if deadBatch > 0 {
		// Surviving batch jobs time-multiplex onto the live cores.
		live := alloc.batchCores(m.nCores) - deadBatch
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
	if spare := alloc.batchCores(m.nCores) - deadBatch - activeCoresUsed; spare > 0 {
		totalPower += float64(spare) * power.GatedCoreW
	}

	// Latency-critical service.
	if m.lc != nil && alloc.LCCores > 0 {
		m.svc.SetServers(lcServers)
		lcFreq := m.freqFor(alloc.LCFreqGHz) * d.SlowLC
		ipc := m.tbl.IPCAt(m.lcAppIdx(), alloc.LCCore, ph.missLC, inflation, lcFreq)
		rateIPC := ipc
		if alloc.LCHalfBlend {
			other := config.Narrowest
			if alloc.LCCore == config.Narrowest {
				other = config.Widest
			}
			rateIPC = (ipc + m.tbl.IPCAt(m.lcAppIdx(), other, ph.missLC, inflation, lcFreq)) / 2
		}
		meanSvc := m.queryInstr / (rateIPC * lcFreq * 1e9)
		res.LCMeanSvc = meanSvc
		start := len(*soj)
		if meanSvc > 0 && !math.IsInf(meanSvc, 1) {
			*soj = m.svc.AppendStep(*soj, durSec, qps0, meanSvc, m.lc.QuerySigma)
		} else {
			// Zero-throughput configuration (rateIPC or lcFreq is 0):
			// the service completes nothing. Advance the queue clock
			// without simulating arrivals — qsim.Step rejects an
			// infinite service time, which would park +Inf among the
			// server free times and poison every later phase — and
			// report one unbounded sojourn so the slice scores as an
			// SLO violation rather than feeding NaN arithmetic
			// downstream.
			m.svc.Advance(durSec)
			if qps0 > 0 {
				*soj = append(*soj, math.Inf(1))
			}
		}
		res.Sojourns = (*soj)[start:len(*soj):len(*soj)]
		util := svcUtilisation(qps0, meanSvc, float64(lcServers))
		// Dynamic power scales with how busy the LC cores actually are.
		// The reported per-core sample is for LCCore itself — what a
		// sensor on one of the LCCore-configured cores would read.
		res.LCCorePowerW = m.Power.CoreAtDVFS(m.lc, alloc.LCCore, ipc*util, lcFreq)
		if alloc.LCHalfBlend {
			other := config.Narrowest
			if alloc.LCCore == config.Narrowest {
				other = config.Widest
			}
			otherIPC := m.tbl.IPCAt(m.lcAppIdx(), other, ph.missLC, inflation, lcFreq)
			otherPower := m.Power.CoreAtDVFS(m.lc, other, otherIPC*util, lcFreq)
			totalPower += float64(lcServers) * (res.LCCorePowerW + otherPower) / 2
		} else {
			totalPower += float64(lcServers) * res.LCCorePowerW
		}
	}

	// Additional latency-critical services.
	if len(alloc.ExtraLC) > 0 {
		res.ExtraSojourns = make([][]float64, len(alloc.ExtraLC))
	}
	for x, e := range alloc.ExtraLC {
		app := m.extraLCs[x]
		svc := m.extraSvcs[x]
		svc.SetServers(e.Cores)
		nominal := m.pm.FreqGHz()
		ipc := m.tbl.IPCAt(m.extraAppIdx(x), e.Core, ph.missExtra[x], inflation, nominal)
		rateIPC := ipc
		if e.HalfBlend {
			other := config.Narrowest
			if e.Core == config.Narrowest {
				other = config.Widest
			}
			rateIPC = (ipc + m.tbl.IPCAt(m.extraAppIdx(x), other, ph.missExtra[x], inflation, nominal)) / 2
		}
		meanSvc := m.extraInstr[x] / (rateIPC * nominal * 1e9)
		res.ExtraMeanSvc = append(res.ExtraMeanSvc, meanSvc)
		sj := extraSoj[x]
		start := len(sj)
		if meanSvc > 0 && !math.IsInf(meanSvc, 1) {
			sj = svc.AppendStep(sj, durSec, qps[x+1], meanSvc, app.QuerySigma)
		} else {
			// Zero-throughput configuration: same treatment as the
			// primary service above.
			svc.Advance(durSec)
			if qps[x+1] > 0 {
				sj = append(sj, math.Inf(1))
			}
		}
		extraSoj[x] = sj
		res.ExtraSojourns[x] = sj[start:len(sj):len(sj)]
		util := svcUtilisation(qps[x+1], meanSvc, float64(e.Cores))
		p := m.Power.Core(app, e.Core, ipc*util)
		res.ExtraLCPowerW = append(res.ExtraLCPowerW, p)
		res.ExtraEffWaysLC = append(res.ExtraEffWaysLC, effExtra[x])
		if e.HalfBlend {
			other := config.Narrowest
			if e.Core == config.Narrowest {
				other = config.Widest
			}
			otherIPC := m.tbl.IPCAt(m.extraAppIdx(x), other, ph.missExtra[x], inflation, nominal)
			otherPower := m.Power.Core(app, other, otherIPC*util)
			totalPower += float64(e.Cores) * (p + otherPower) / 2
		} else {
			totalPower += float64(e.Cores) * p
		}
	}

	totalPower += m.Power.LLC(config.LLCWays) + m.Power.Uncore(m.nCores)
	res.PowerW = totalPower
	res.FailedLC = deadLC
	res.FailedBatch = deadBatch
	m.now += durSec
	return res
}

// lcUtilisation estimates the LC cores' busy fraction for the
// bandwidth fixed point at the LC service's staged miss ratio. servers
// is the count of live LC cores and slow the fail-slow frequency
// de-rating (1 when healthy).
func (m *Machine) lcUtilisation(alloc *Allocation, qps, missLC, inflation float64, servers int, slow float64) float64 {
	f := m.freqFor(alloc.LCFreqGHz) * slow
	ipc := m.tbl.IPCAt(m.lcAppIdx(), alloc.LCCore, missLC, inflation, f)
	meanSvc := m.queryInstr / (ipc * f * 1e9)
	return svcUtilisation(qps, meanSvc, float64(servers))
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

// freqFor resolves a per-assignment frequency override against the
// design's nominal clock.
func (m *Machine) freqFor(override float64) float64 {
	if override > 0 {
		return override
	}
	return m.pm.FreqGHz()
}

// effectiveWays computes the LLC ways each application observes. Under
// partitioning each job sees its allocation. Without partitioning all
// active applications contend for the 32 ways with occupancy
// proportional to per-core capacity demand (working-set size), the
// first-order behaviour of shared LRU; that equilibrium is memoised per
// machine (waysMemo). The returned slices are the caller's.
func (m *Machine) effectiveWays(alloc *Allocation) (batch []float64, lc float64, extra []float64) {
	batch = make([]float64, len(m.batch))
	extra = make([]float64, len(alloc.ExtraLC))
	if !alloc.NoPartition {
		for i, b := range alloc.Batch {
			if !b.Gated {
				batch[i] = b.Cache.Ways()
			}
		}
		if m.lc != nil && alloc.LCCores > 0 {
			lc = alloc.LCCache.Ways()
		}
		for x, e := range alloc.ExtraLC {
			extra[x] = e.Cache.Ways()
		}
		return batch, lc, extra
	}
	lc, ok := m.ways.get(alloc, batch, extra)
	if !ok {
		lc = m.lruWays(alloc, batch, extra)
		m.ways.put(alloc, batch, lc, extra)
	}
	return batch, lc, extra
}

// lruWays solves the unpartitioned equilibrium of alloc, writing the
// batch jobs' and extra services' occupancies into batch and extra
// (zeroed by the caller) and returning the primary service's.
func (m *Machine) lruWays(alloc *Allocation, batch, extra []float64) (lc float64) {
	// Unpartitioned LRU equilibrium: an application's occupancy is
	// proportional to its insertion (miss) rate, and its miss rate
	// rises as its occupancy shrinks — a negative feedback this fixed
	// point captures. Access weights are per-core miss traffic; the LC
	// service inserts from all of its cores into one shared working
	// set.
	type sharer struct {
		weight float64
		miss   func(float64) float64
		ways   float64
		missed float64 // miss(ways) at the current iterate
	}
	sharers := make([]sharer, 0, len(alloc.Batch)+1+len(alloc.ExtraLC))
	for i, b := range alloc.Batch {
		if b.Gated {
			continue
		}
		app := m.batch[i]
		sharers = append(sharers, sharer{
			weight: app.MemFrac * app.L1MissRate,
			miss:   app.MissRatio,
		})
	}
	lcIdx := -1
	if m.lc != nil && alloc.LCCores > 0 {
		lcIdx = len(sharers)
		sharers = append(sharers, sharer{
			weight: m.lc.MemFrac * m.lc.L1MissRate * float64(alloc.LCCores),
			miss:   m.lc.MissRatio,
		})
	}
	extraIdx := make([]int, len(alloc.ExtraLC))
	for x, e := range alloc.ExtraLC {
		app := m.extraLCs[x]
		extraIdx[x] = len(sharers)
		sharers = append(sharers, sharer{
			weight: app.MemFrac * app.L1MissRate * float64(e.Cores),
			miss:   app.MissRatio,
		})
	}
	if len(sharers) == 0 {
		return 0
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
			sharers[i].missed = sharers[i].miss(sharers[i].ways)
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
	if lcIdx >= 0 {
		lc = sharers[lcIdx].ways
	}
	for x, si := range extraIdx {
		extra[x] = sharers[si].ways
	}
	return lc
}

// waysMemoSize is how many unpartitioned equilibria a machine keeps. A
// baseline's slice alternates between two occupancy patterns — it
// profiles with every core on, then runs the gating it decided — so two
// entries serve both.
const waysMemoSize = 2

// waysMemo caches lruWays per machine. The equilibrium reads nothing of
// an allocation but which batch jobs are gated, the primary service's
// core count and the extra services' core counts (the machine's
// applications are fixed at New), so an entry keyed on exactly those
// returns the solved occupancies bit for bit. Entries keep their
// buffers: a miss overwrites the least recently used one in place.
type waysMemo struct {
	entries [waysMemoSize]waysEntry
	clock   uint64 // last-use stamp source
}

type waysEntry struct {
	used uint64 // last-use stamp; 0 marks an empty entry

	// Key.
	gated      []bool
	lcCores    int
	extraCores []int

	// Solved occupancies.
	batch []float64
	lc    float64
	extra []float64
}

func (e *waysEntry) matches(alloc *Allocation) bool {
	if e.used == 0 || e.lcCores != alloc.LCCores ||
		len(e.gated) != len(alloc.Batch) || len(e.extraCores) != len(alloc.ExtraLC) {
		return false
	}
	for i, b := range alloc.Batch {
		if e.gated[i] != b.Gated {
			return false
		}
	}
	for x, a := range alloc.ExtraLC {
		if e.extraCores[x] != a.Cores {
			return false
		}
	}
	return true
}

// get copies alloc's cached occupancies into batch and extra and
// returns the primary service's; ok is false on a miss.
func (w *waysMemo) get(alloc *Allocation, batch, extra []float64) (lc float64, ok bool) {
	for i := range w.entries {
		if e := &w.entries[i]; e.matches(alloc) {
			w.clock++
			e.used = w.clock
			copy(batch, e.batch)
			copy(extra, e.extra)
			return e.lc, true
		}
	}
	return 0, false
}

// put records alloc's solved occupancies.
func (w *waysMemo) put(alloc *Allocation, batch []float64, lc float64, extra []float64) {
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
	e.lcCores = alloc.LCCores
	e.extraCores = e.extraCores[:0]
	for _, a := range alloc.ExtraLC {
		e.extraCores = append(e.extraCores, a.Cores)
	}
	e.batch = append(e.batch[:0], batch...)
	e.lc = lc
	e.extra = append(e.extra[:0], extra...)
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
	if m.lc != nil {
		ipc := refPerf.IPC(m.lc, config.Widest, config.FourWays.Ways(), 1)
		p := refPower.Core(m.lc, config.Widest, ipc)
		// The LC service holds half the machine at t=0 (§VII-A), so it
		// contributes that many per-core samples to the average.
		k := m.nCores / 2
		sum += p * float64(k)
		n += k
	}
	if n == 0 {
		return m.Power.LLC(config.LLCWays) + m.Power.Uncore(m.nCores)
	}
	return sum/float64(n)*float64(m.nCores) +
		refPower.LLC(config.LLCWays) + refPower.Uncore(m.nCores)
}
