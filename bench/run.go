package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"

	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/stats"
)

// powerTolerance is how far summed fleet power may exceed the cluster
// budget before a slice counts toward sim.power_over_budget_frac.
const powerTolerance = 1.02

// digest is a running FNV-1a over the bits of every slice record.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) word(x uint64) {
	h := uint64(*d)
	for s := uint(0); s < 64; s += 8 {
		h ^= (x >> s) & 0xff
		h *= 1099511628211
	}
	*d = digest(h)
}

func (d *digest) float(v float64) { d.word(math.Float64bits(v)) }
func (d *digest) int(v int)       { d.word(uint64(v)) }
func (d *digest) bool(v bool) {
	if v {
		d.word(1)
	} else {
		d.word(0)
	}
}
func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		d.word(uint64(s[i]))
	}
	d.word(uint64(len(s)))
}
func (d *digest) floats(vs []float64) {
	for _, v := range vs {
		d.float(v)
	}
	d.int(len(vs))
}

func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

// stepOut is what one workload step contributes to the run totals.
type stepOut struct {
	machineSlices int       // machine-slices completed
	failed        int       // of those, how many carried an invalid record
	met           int       // machine-slices with every service's p99 within QoS
	ratios        []float64 // worst p99/QoS of each machine-slice
	instrB        float64
	offeredQPS    float64
	unroutedQPS   float64
	overBudget    bool
}

func (o *stepOut) reset() { *o = stepOut{ratios: o.ratios[:0]} }

func finiteNonNeg(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }

// foldFleetRecord folds one fleet slice. Per-machine power comes from
// the fleet's telemetry, which after Step describes the slice just
// completed.
func foldFleetRecord(out *stepOut, h *digest, rec *fleet.SliceRecord, tele []fleet.Telemetry) {
	h.float(rec.T)
	h.float(rec.OfferedQPS)
	h.float(rec.BudgetW)
	for _, id := range rec.Members {
		h.int(id)
	}
	h.floats(rec.NodeQPS)
	h.floats(rec.NodeBudgetW)
	h.floats(rec.NodeP99Ms)
	for _, v := range rec.NodeViolated {
		h.bool(v)
	}
	h.float(rec.QoSMetFrac)
	h.float(rec.PowerW)
	h.float(rec.TotalInstrB)
	h.float(rec.MeanGmeanBIPS)

	out.machineSlices = len(rec.Members)
	out.offeredQPS = rec.OfferedQPS
	out.instrB = rec.TotalInstrB
	out.overBudget = rec.PowerW > rec.BudgetW*powerTolerance
	budgetSum := 0.0
	for k, id := range rec.Members {
		tl := tele[id]
		h.float(tl.AvgPowerW)
		budgetSum += rec.NodeBudgetW[k]
		ok := finiteNonNeg(rec.NodeP99Ms[k]) && finiteNonNeg(tl.AvgPowerW)
		if !ok {
			out.failed++
		}
		if ok && !rec.NodeViolated[k] {
			out.met++
		}
		ratio := 0.0
		if tl.QoSMs > 0 {
			ratio = rec.NodeP99Ms[k] / tl.QoSMs
		}
		out.ratios = append(out.ratios, ratio)
	}
	// The arbiter may only hand out what the cluster was given; fault
	// factors shrink shares, never grow them.
	if !finiteNonNeg(rec.TotalInstrB) || budgetSum > rec.BudgetW*(1+1e-9) {
		out.failed = out.machineSlices
		out.met = 0
	}
}

// foldMachineRecord folds one single-machine slice; the machine-slice
// meets QoS only if every service on it does.
func foldMachineRecord(out *stepOut, h *digest, rec *harness.SliceRecord) {
	h.float(rec.T)
	h.float(rec.LoadFrac)
	h.float(rec.QPS)
	h.float(rec.BudgetW)
	h.float(rec.P99Ms)
	h.bool(rec.Violated)
	h.floats(rec.ExtraP99Ms)
	for _, v := range rec.ExtraViolated {
		h.bool(v)
	}
	for _, v := range rec.ExtraLCCores {
		h.int(v)
	}
	h.floats(rec.BatchInstrB)
	h.float(rec.TotalInstrB)
	h.float(rec.GmeanBIPS)
	h.float(rec.AvgPowerW)
	h.int(rec.LCCores)
	h.str(rec.LCCoreCfg)
	h.float(rec.LCCacheWays)
	h.float(rec.OverheadSec)
	h.int(rec.ProfileRetries)

	out.machineSlices = 1
	out.instrB = rec.TotalInstrB
	out.offeredQPS = rec.QPS
	out.overBudget = rec.AvgPowerW > rec.BudgetW*powerTolerance
	ok := finiteNonNeg(rec.P99Ms) && finiteNonNeg(rec.AvgPowerW) && finiteNonNeg(rec.TotalInstrB)
	met := ok && !rec.Violated
	ratio := 0.0
	if rec.QoSMs > 0 {
		ratio = rec.P99Ms / rec.QoSMs
	}
	for x, p99 := range rec.ExtraP99Ms {
		ok = ok && finiteNonNeg(p99)
		met = met && !rec.ExtraViolated[x]
		if q := rec.ExtraQoSMs[x]; q > 0 && p99/q > ratio {
			ratio = p99 / q
		}
	}
	if !ok {
		out.failed = 1
	}
	if ok && met {
		out.met = 1
	}
	out.ratios = append(out.ratios, ratio)
}

// runRequest is one child run: a workload at a fixed slice count.
type runRequest struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Slices is the horizon the workload is built for: it shapes the
	// compiled load, budget and fault patterns. Steps is how many of
	// those slices to run (0 = all), so a shorter traced run replays a
	// prefix of the very same scenario.
	Slices int  `json:"slices"`
	Steps  int  `json:"steps,omitempty"`
	Traced bool `json:"traced"`
	// Checkpoint asks for the cumulative digest after this many slices
	// (0 = none), so a traced run of K slices can be checked against a
	// longer untraced one.
	Checkpoint int `json:"checkpoint,omitempty"`
	// DeadlineS stops the timed window once it has run this long (0 =
	// never). A run cut short reports Truncated; its sim.* metrics then
	// cover fewer slices and are not comparable across hosts.
	DeadlineS float64 `json:"deadline_s,omitempty"`
	// SetupOnly exits as soon as the first slice is ready to run; the
	// driver times the whole child to get setup_s.
	SetupOnly bool   `json:"setup_only,omitempty"`
	SpansPath string `json:"spans_path,omitempty"`
}

// runResult is what a child run reports back.
type runResult struct {
	Slices        int     `json:"slices"`
	Warmup        int     `json:"warmup_slices"`
	TimedSteps    int     `json:"timed_steps"`
	MachineSlices int     `json:"timed_machine_slices"`
	Truncated     bool    `json:"truncated,omitempty"`
	OpsAttempted  int     `json:"ops_attempted"`
	OpsFailed     int     `json:"ops_failed"`
	SimDigest     string  `json:"sim_digest"`
	CheckDigest   string  `json:"checkpoint_digest,omitempty"`
	Error         string  `json:"error,omitempty"`
	WallS         float64 `json:"timed_wall_s"`

	Metrics map[string]float64 `json:"metrics"`
	Mem     map[string]float64 `json:"mem,omitempty"`
	Layers  map[string]float64 `json:"layers,omitempty"`
}

func heapAllocBytes() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// runWorkload executes one child run.
func runWorkload(req runRequest) (*runResult, error) {
	def, err := workloadByName(req.Workload)
	if err != nil {
		return nil, err
	}
	steps := req.Steps
	if steps <= 0 || steps > req.Slices {
		steps = req.Slices
	}
	if steps < 3 {
		return nil, fmt.Errorf("workload %s: %d slices is too few to time", req.Workload, steps)
	}
	var tr *tracer
	if req.Traced {
		tr = newTracer()
	}
	r, err := def.build(req.Seed, req.Slices, tr)
	if err != nil {
		return nil, fmt.Errorf("workload %s: set-up: %w", req.Workload, err)
	}
	defer r.close()
	res := &runResult{
		Slices: steps, Warmup: warmupSlices(steps), Metrics: map[string]float64{},
	}
	if req.SetupOnly {
		return res, nil
	}

	var (
		out        stepOut
		h          = newDigest()
		stepMs     = make([]float64, 0, steps)
		ratios     = make([]float64, 0, steps)
		met        int
		instrB     float64
		offered    float64
		unrouted   float64
		overBudget int
		done       int
		windowT0   hostTime
		windowA0   uint64
	)
	for sl := 0; sl < steps; sl++ {
		if sl == res.Warmup {
			windowT0, windowA0 = now(), heapAllocBytes()
		}
		attempt := r.machines()
		out.reset()
		root := -1
		if tr != nil {
			tr.slice = sl
			root = tr.begin(spanStep, clusterMachine)
		}
		t0 := now()
		err := r.step(&out, &h)
		dt := since(t0)
		if tr != nil {
			tr.end(root)
		}
		done++
		if err != nil {
			// The whole step is lost: every machine it would have stepped
			// counts as attempted and failed, and the run ends here.
			res.OpsAttempted += attempt
			res.OpsFailed += attempt
			res.Error = err.Error()
			break
		}
		res.OpsAttempted += out.machineSlices
		res.OpsFailed += out.failed
		met += out.met
		instrB += out.instrB
		offered += out.offeredQPS
		unrouted += out.unroutedQPS
		ratios = append(ratios, out.ratios...)
		if out.overBudget {
			overBudget++
		}
		if sl+1 == req.Checkpoint {
			res.CheckDigest = h.String()
		}
		if sl >= res.Warmup {
			stepMs = append(stepMs, millis(dt))
			res.MachineSlices += out.machineSlices
			if req.DeadlineS > 0 && seconds(since(windowT0)) > req.DeadlineS && sl+1 < steps {
				res.Truncated = true
				break
			}
		}
	}
	if len(stepMs) == 0 {
		return res, fmt.Errorf("workload %s: no timed step completed: %s", req.Workload, res.Error)
	}
	res.WallS = seconds(since(windowT0))
	allocBytes := heapAllocBytes() - windowA0
	res.TimedSteps = len(stepMs)
	res.SimDigest = h.String()

	m := res.Metrics
	m["machine_slices_per_s"] = float64(res.MachineSlices) / res.WallS
	m["alloc_kb_per_machine_slice"] = float64(allocBytes) / 1024 / float64(res.MachineSlices)
	m["slice_wall_ms_p50"] = stats.Percentile(stepMs, 0.50)
	m["slice_wall_ms_p95"] = stats.Percentile(stepMs, 0.95)
	m["sim.qos_met_frac"] = float64(met) / float64(res.OpsAttempted)
	m["sim.batch_instr_b_per_machine_slice"] = instrB / float64(res.OpsAttempted)
	m["sim.power_over_budget_frac"] = float64(overBudget) / float64(done)
	m["sim.p99_over_qos_p95"] = stats.Percentile(ratios, 0.95)
	m["sim.shed_qps_frac"] = unrouted / math.Max(offered, 1)

	// Live heap with the fleet and its results still referenced: the
	// deferred close keeps r reachable until the function returns.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["live_heap_mb_end"] = float64(ms.HeapAlloc) / (1 << 20)
	res.Mem = map[string]float64{
		"mem.gc_count":     float64(ms.NumGC),
		"mem.heap_peak_mb": float64(ms.HeapSys) / (1 << 20),
		"mem.peak_rss_mb":  peakRSSMB(),
	}
	if tr != nil {
		res.Layers = tracedLayers(def, r, tr, res)
		if req.SpansPath != "" {
			if err := tr.writeChrome(req.SpansPath, req.Workload); err != nil {
				return res, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	return res, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
