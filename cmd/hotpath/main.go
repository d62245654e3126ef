// Command hotpath is the per-quantum fast-plane audit: it verifies, on
// the full seeded grids, that every fast-path structure introduced by
// the hot-path rounds reproduces the pointwise code it replaced
// bit-for-bit — the staged perf surface tables against the pointwise
// model, the batched Erlang-C tail-latency solver against the scalar
// analytic, and the pipelined decide/hold schedule against the serial
// fleet — and reports the work the fast plane did: surface-table
// builds, zero-alloc lookups served, and decision quanta whose
// scheduler compute overlapped the hold phase.
//
// Every run is deterministic: a fixed seed produces a byte-identical
// report regardless of GOMAXPROCS, because the audits compare exact
// float64 bit patterns and the pipelined driver joins before any
// shared state is read. BENCH_hotpath.json pins the reference audit.
//
// With -sweep, the audit is followed by a wall-clock fleet-stepping
// throughput sweep (16 and 256 machines) printed to stderr; timing is
// host-dependent and never part of the JSON report.
//
// Usage:
//
//	hotpath [-services xapian,masstree,imgdnn] [-seed 1] [-machines 4]
//	        [-slices 5] [-load 0.7] [-cap 0.65] [-sweep] [-o report.json]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"time"

	"cuttlesys"
	"cuttlesys/internal/config"
	"cuttlesys/internal/perf"
	"cuttlesys/internal/qsim"
	"cuttlesys/internal/workload"
)

// TableCell is one (app, inflation) surface-table audit: exact-equality
// verdicts of every dense surface and the DVFS point lookups against
// the pointwise model over the full 108-configuration grid.
type TableCell struct {
	App       string  `json:"app"`
	Inflation float64 `json:"inflation"`
	GridCells int     `json:"gridCells"`
	IPCEqual  bool    `json:"ipcEqual"`
	BIPSEqual bool    `json:"bipsEqual"`
	Traffic   bool    `json:"trafficEqual"`
	Service   bool    `json:"serviceEqual"`
	DVFSEqual bool    `json:"dvfsEqual"`
}

// QsimAudit summarises the batched-vs-scalar Erlang-C comparison.
type QsimAudit struct {
	Cells      int  `json:"cells"`
	MaxServers int  `json:"maxServers"`
	Equal      bool `json:"equal"`
}

// PipelineAudit is the pipelined-vs-serial fleet comparison plus the
// fast-plane work counters of the pipelined run.
type PipelineAudit struct {
	Machines      int    `json:"machines"`
	Slices        int    `json:"slices"`
	MatchSerial   bool   `json:"matchSerial"`
	OverlapQuanta uint64 `json:"overlapQuanta"`
	TableBuilds   uint64 `json:"tableBuilds"`
	TableLookups  uint64 `json:"tableLookups"`
}

// Report is the full fast-plane audit.
type Report struct {
	Services []string      `json:"services"`
	Seed     uint64        `json:"seed"`
	Load     float64       `json:"load"`
	Cap      float64       `json:"cap"`
	Table    []TableCell   `json:"tableAudit"`
	Qsim     QsimAudit     `json:"qsimAudit"`
	Pipeline PipelineAudit `json:"pipelineAudit"`
}

func main() {
	services := flag.String("services", "xapian,masstree,imgdnn", "comma-separated latency-critical services")
	seed := flag.Uint64("seed", 1, "experiment seed")
	machines := flag.Int("machines", 4, "machines in the pipeline audit fleet")
	slices := flag.Int("slices", 5, "timeslices per fleet run")
	load := flag.Float64("load", 0.7, "LC offered load fraction")
	capFrac := flag.Float64("cap", 0.65, "power cap fraction of reference max power")
	sweep := flag.Bool("sweep", false, "after the audit, print a wall-clock fleet throughput sweep to stderr")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	rep, err := audit(strings.Split(*services, ","), *seed, *machines, *slices, *load, *capFrac)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hotpath: %v\n", err)
		os.Exit(1)
	}
	if err := cuttlesys.WriteReport(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "hotpath: %v\n", err)
		os.Exit(1)
	}
	if *sweep {
		if err := throughputSweep(*load, *capFrac); err != nil {
			fmt.Fprintf(os.Stderr, "hotpath: %v\n", err)
			os.Exit(1)
		}
	}
}

func audit(services []string, seed uint64, machines, slices int, load, capFrac float64) (*Report, error) {
	rep := &Report{Services: services, Seed: seed, Load: load, Cap: capFrac}
	if err := tableAudit(rep, services, seed); err != nil {
		return nil, err
	}
	qsimAudit(rep)
	if err := pipelineAudit(rep, services[0], seed, machines, slices, load, capFrac); err != nil {
		return nil, err
	}
	return rep, nil
}

// tableAudit compares every dense surface and the DVFS point lookups
// of a freshly staged SurfaceTable against the pointwise model, for
// each service plus a seeded batch mix, at an idle and a colocated
// memory-latency inflation.
func tableAudit(rep *Report, services []string, seed uint64) error {
	pm := perf.New(true)
	var apps []*workload.Profile
	for _, name := range services {
		app, err := workload.ByName(name)
		if err != nil {
			return err
		}
		apps = append(apps, app)
	}
	_, pool := workload.SplitTrainTest(1, 16)
	apps = append(apps, workload.Mix(seed, pool, 4)...)

	for _, app := range apps {
		for _, inflation := range []float64{1, 1.35} {
			tbl := perf.NewSurfaceTable(pm, []*workload.Profile{app})
			tbl.Build(inflation)
			cell := TableCell{
				App: app.Name, Inflation: inflation, GridCells: config.NumResources,
				IPCEqual: true, BIPSEqual: true, Traffic: true, Service: true, DVFSEqual: true,
			}
			for i, r := range config.AllResources() {
				ways := r.Cache.Ways()
				if !bitEq(tbl.IPC(0, i), pm.IPC(app, r.Core, ways, inflation)) {
					cell.IPCEqual = false
				}
				if !bitEq(tbl.BIPS(0, i), pm.BIPS(app, r.Core, ways, inflation)) {
					cell.BIPSEqual = false
				}
				if !bitEq(tbl.DRAMTrafficGBs(0, i), pm.DRAMTrafficGBs(app, r.Core, ways, inflation)) {
					cell.Traffic = false
				}
				if app.IsLC() && !bitEq(tbl.ServiceTimeSec(0, i), pm.ServiceTime(app, r.Core, ways, inflation)) {
					cell.Service = false
				}
				for _, freq := range []float64{1.2, 2.8, pm.FreqGHz()} {
					wi := perf.WayIndex(ways)
					if !bitEq(tbl.IPCAt(0, r.Core.Index(), wi, inflation, freq),
						pm.IPCAtFreq(app, r.Core, ways, inflation, freq)) {
						cell.DVFSEqual = false
					}
				}
			}
			rep.Table = append(rep.Table, cell)
		}
	}
	return nil
}

// qsimAudit compares P99AnalyticBatch against the scalar P99Analytic
// over a service-time × dispersion × load grid, all server counts 1..64
// per cell, exact float64 equality (Inf included).
func qsimAudit(rep *Report) {
	const maxK = 64
	ks := make([]int, maxK)
	for i := range ks {
		ks[i] = i + 1
	}
	out := make([]float64, maxK)
	equal := true
	cells := 0
	for _, meanSvcMs := range []float64{0.2, 0.7, 3} {
		for _, sigma := range []float64{0, 0.3, 0.8} {
			for _, loadFrac := range []float64{0, 0.1, 0.6, 0.95, 1.1} {
				meanSvc := meanSvcMs * 1e-3
				qps := loadFrac * float64(maxK) / 2 / meanSvc
				qsim.P99AnalyticBatch(ks, qps, meanSvc, sigma, out)
				for j, k := range ks {
					cells++
					if !bitEq(out[j], qsim.P99Analytic(k, qps, meanSvc, sigma)) {
						equal = false
					}
				}
			}
		}
	}
	rep.Qsim = QsimAudit{Cells: cells, MaxServers: maxK, Equal: equal}
}

// bitEq is exact float64 identity: same bit pattern, so +Inf matches
// +Inf and NaN payloads would have to agree too.
func bitEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// auditFleet assembles n full CuttleSys runtimes behind a QoS-aware
// router, optionally with decide/hold pipelining.
func auditFleet(service string, seed uint64, n int, pipeline bool) (*cuttlesys.Fleet, error) {
	lc, err := cuttlesys.AppByName(service)
	if err != nil {
		return nil, err
	}
	_, pool := cuttlesys.SplitTrainTest(1, 16)
	seeds := cuttlesys.FleetSeeds(seed, n)
	nodes := make([]cuttlesys.FleetNode, n)
	for i := 0; i < n; i++ {
		m := cuttlesys.NewMachine(cuttlesys.MachineSpec{
			Seed: seeds[i], LC: lc, Batch: cuttlesys.Mix(seeds[i], pool, 16), Reconfigurable: true,
		})
		nodes[i] = cuttlesys.FleetNode{
			Machine:   m,
			Scheduler: cuttlesys.NewRuntime(m, cuttlesys.RuntimeParams{Seed: seeds[i]}),
		}
	}
	return cuttlesys.NewFleet(cuttlesys.FleetConfig{
		Router: cuttlesys.LeastLoadedRouter{}, Arbiter: cuttlesys.HeadroomArbiter{}, Pipeline: pipeline,
	}, nodes...)
}

// pipelineAudit runs the identical fleet serial and pipelined and
// requires the merged slice records to match bit-for-bit; the
// fast-plane work counters come from the pipelined run.
func pipelineAudit(rep *Report, service string, seed uint64, machines, slices int, load, capFrac float64) error {
	run := func(pipeline bool) (*cuttlesys.FleetResult, *cuttlesys.Fleet, error) {
		f, err := auditFleet(service, seed, machines, pipeline)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		res, err := f.Run(slices, cuttlesys.ConstantLoad(load), cuttlesys.ConstantBudget(capFrac))
		return res, f, err
	}
	serial, _, err := run(false)
	if err != nil {
		return err
	}
	piped, pf, err := run(true)
	if err != nil {
		return err
	}
	builds, lookups := pf.SurfaceStats()
	rep.Pipeline = PipelineAudit{
		Machines:      machines,
		Slices:        slices,
		MatchSerial:   reflect.DeepEqual(serial.Slices, piped.Slices),
		OverlapQuanta: pf.OverlapQuanta(),
		TableBuilds:   builds,
		TableLookups:  lookups,
	}
	return nil
}

// throughputSweep times pipelined fleet stepping at 16 and 256
// machines and prints machine-slices per second to stderr. Wall-clock
// figures are host-dependent by nature; they never enter the report.
func throughputSweep(load, capFrac float64) error {
	for _, n := range []int{16, 256} {
		f, err := auditFleet("xapian", 1, n, true)
		if err != nil {
			return err
		}
		const slices = 2
		//lint:allow determinism the sweep measures real stepping wall time; it prints to stderr and never enters the report
		start := time.Now()
		if _, err := f.Run(slices, cuttlesys.ConstantLoad(load), cuttlesys.ConstantBudget(capFrac)); err != nil {
			f.Close()
			return err
		}
		//lint:allow determinism the sweep measures real stepping wall time; it prints to stderr and never enters the report
		elapsed := time.Since(start)
		f.Close()
		fmt.Fprintf(os.Stderr, "hotpath: %3d machines: %d fleet slices in %v — %.1f machine-slices/sec\n",
			n, slices, elapsed.Round(time.Millisecond), float64(n*slices)/elapsed.Seconds())
	}
	return nil
}
