package baseline

import (
	"math"
	"sort"

	"cuttlesys/internal/config"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/perf"
	"cuttlesys/internal/power"
	"cuttlesys/internal/qsim"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// Asymmetric is the asymmetric-multicore baseline (§VII-C): fixed big
// ({6,6,6}) and little ({2,2,2}) cores. In Oracle mode the number of
// big and little cores is chosen optimally each timeslice using the
// true performance and power models with zero migration overhead — the
// paper's "oracle-like" upper bound. In fixed 50-50 mode the design
// has 16 big and 16 little cores and the scheduler only chooses
// placements within that constraint.
type Asymmetric struct {
	// Oracle selects per-slice optimal big/little counts; false is the
	// fixed 50-50 design.
	Oracle bool

	lc      *workload.Profile
	batch   []*workload.Profile
	nCores  int
	lcCores int
	wm      *power.Model

	// Slice-invariant terms, staged once from the fixed-core surface
	// table: jobs run at two ways and the service at four, both under
	// inflation 1.2, so only the service's power (which scales with the
	// offered load) is left to each DecideMulti.
	jobs            []jobEval // job-ordered big/little template
	byDensity       []jobEval // jobs by descending density, the upgrade order
	lcLittle, lcBig lcTerms

	// alloc is the decided allocation, the scheduler's own storage:
	// valid until its next DecideMulti.
	alloc sim.Allocation
}

// jobEval is one batch job's big-versus-little trade-off.
type jobEval struct {
	density        float64
	i              int
	powerB, powerL float64
	gain           float64
}

// lcTerms is the service's IPC and mean service time on one core type.
type lcTerms struct{ ipc, meanSvc float64 }

var big = config.Widest
var little = config.Narrowest

// NewAsymmetric builds the baseline for machine m (fixed cores).
func NewAsymmetric(m *sim.Machine, oracle bool) *Asymmetric {
	a := &Asymmetric{
		Oracle: oracle,
		lc:     m.LC(),
		batch:  m.Batch(),
		nCores: m.NCores(),
		wm:     power.New(false),
		jobs:   make([]jobEval, len(m.Batch())),
		alloc:  sim.Allocation{Batch: make([]sim.BatchAssign, len(m.Batch()))},
	}
	pm := perf.New(false)
	freq := pm.FreqGHz()
	apps := append([]*workload.Profile(nil), a.batch...)
	if a.lc != nil {
		apps = append(apps, a.lc)
	}
	tbl := perf.NewSurfaceTable(pm, apps)
	for i, app := range a.batch {
		mr := tbl.MissRatioAt(i, 2)
		ipcB := tbl.IPCAt(i, big, mr, 1.2, freq)
		ipcL := tbl.IPCAt(i, little, mr, 1.2, freq)
		e := jobEval{
			i:      i,
			powerB: a.wm.Core(app, big, ipcB),
			powerL: a.wm.Core(app, little, ipcL),
			gain:   math.Log(ipcB / ipcL),
		}
		e.density = e.gain / math.Max(e.powerB-e.powerL, 1e-9)
		a.jobs[i] = e
	}
	a.byDensity = append([]jobEval(nil), a.jobs...)
	sort.Slice(a.byDensity, func(x, y int) bool { return a.byDensity[x].density > a.byDensity[y].density })
	if a.lc != nil {
		a.lcCores = m.NCores() / 2
		q := pm.QueryInstr(a.lc)
		lcAt := func(c config.Core) lcTerms {
			ipc := tbl.IPCAt(len(a.batch), c, tbl.MissRatioAt(len(a.batch), 4), 1.2, freq)
			return lcTerms{ipc: ipc, meanSvc: q / (ipc * freq * 1e9)}
		}
		a.lcLittle, a.lcBig = lcAt(little), lcAt(big)
	}
	return a
}

// Name implements harness.Scheduler.
func (a *Asymmetric) Name() string {
	if a.Oracle {
		return "asymm-oracle"
	}
	return "asymm-50-50"
}

// ProfilePhasesMulti implements harness.Scheduler; the oracle needs no
// measurements (it has the true models) and the 50-50 design follows
// the same decision procedure.
func (*Asymmetric) ProfilePhasesMulti(qps []float64, budgetW float64) []harness.Phase { return nil }

// lcNeedsBig reports whether the LC service requires big cores to meet
// QoS at the offered load, using the analytic M/G/k tail approximation
// with headroom for colocation interference.
func (a *Asymmetric) lcNeedsBig(qps float64) bool {
	if qps <= 0 {
		return false
	}
	meanSvc := a.lcLittle.meanSvc
	if qps*meanSvc/float64(a.lcCores) > 0.75 {
		return true
	}
	p99 := qsim.P99Analytic(a.lcCores, qps, meanSvc, a.lc.QuerySigma)
	return p99*1e3 > 0.8*a.lc.QoSTargetMs
}

// DecideMulti implements harness.Scheduler.
func (a *Asymmetric) DecideMulti(profile []sim.PhaseResult, qps []float64, budgetW float64) (sim.Allocation, float64) {
	alloc := &a.alloc
	*alloc = sim.Allocation{Batch: alloc.Batch}

	bigBudget := a.nCores // oracle: any split
	lcOnBig := false
	if a.lc != nil {
		alloc.LCCores = a.lcCores
		alloc.LCCache = config.FourWays
		lcOnBig = a.lcNeedsBig(qps[0])
		if lcOnBig {
			alloc.LCCore = big
		} else {
			alloc.LCCore = little
		}
	}
	if !a.Oracle {
		bigBudget = a.nCores / 2
		if lcOnBig {
			bigBudget -= a.lcCores
			if bigBudget < 0 {
				bigBudget = 0
			}
		}
	} else {
		bigBudget = a.nCores - alloc.LCCores
	}

	// Per-job big/little choice: start everyone little, then upgrade by
	// log-throughput gain per watt (the geometric-mean objective is a
	// sum of logs) while the budget and the big-core count allow.
	lcPower := 0.0
	if a.lc != nil {
		lt := a.lcLittle
		if lcOnBig {
			lt = a.lcBig
		}
		util := math.Min(1, qps[0]*lt.meanSvc/float64(alloc.LCCores))
		lcPower = a.wm.Core(a.lc, alloc.LCCore, lt.ipc*util) * float64(alloc.LCCores)
	}
	budgetLeft := budgetW - fixedChipPower(a.nCores) - lcPower
	for i, e := range a.jobs {
		alloc.Batch[i] = sim.BatchAssign{Core: little, Cache: config.OneWay}
		budgetLeft -= e.powerL
	}
	bigs := 0
	for _, e := range a.byDensity {
		if bigs >= bigBudget {
			break
		}
		delta := e.powerB - e.powerL
		if delta <= budgetLeft {
			alloc.Batch[e.i].Core = big
			budgetLeft -= delta
			bigs++
		}
	}

	// If even all-little exceeds the budget, gate little cores in
	// descending power order.
	for budgetLeft < 0 {
		worst, wi := 0.0, -1
		for i := range alloc.Batch {
			if alloc.Batch[i].Gated || alloc.Batch[i].Core != little {
				continue
			}
			if p := a.jobs[i].powerL; p > worst {
				worst, wi = p, i
			}
		}
		if wi < 0 {
			break
		}
		alloc.Batch[wi].Gated = true
		budgetLeft += worst - power.GatedCoreW
	}

	// The paper's asymmetric baseline manages core types only; the LLC
	// stays hardware-shared (way partitioning is the gating+wp
	// variant's distinguishing feature, §VII-B).
	alloc.NoPartition = true
	return *alloc, 0
}

// EndSliceMulti implements harness.Scheduler.
func (*Asymmetric) EndSliceMulti(steady sim.PhaseResult, qps []float64) {}

var _ harness.Scheduler = (*Asymmetric)(nil)
