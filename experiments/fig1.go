package experiments

import (
	"fmt"
	"io"
	"sort"

	"cuttlesys/internal/config"
	"cuttlesys/internal/perf"
	"cuttlesys/internal/power"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// Fig1Row is one bar of the Fig. 1 characterisation: a latency-critical
// service on a homogeneous 16-core system at one core configuration
// and load.
type Fig1Row struct {
	Service  string
	Config   config.Core
	LoadFrac float64
	P99Ms    float64
	// PowerW is the 16-core power of the service at this point.
	PowerW float64
}

// Fig1 reproduces the §III characterisation: tail latency and power of
// all five TailBench services across the 27 core configurations at the
// given loads (the paper uses 20 % and 80 %), each simulated on a
// dedicated 16-core system with four LLC ways for simSec seconds.
func Fig1(loads []float64, seed uint64, simSec float64) []Fig1Row {
	if len(loads) == 0 {
		loads = []float64{0.2, 0.8}
	}
	if simSec == 0 {
		simSec = 0.5
	}
	pm, wm := perf.New(true), power.New(true)
	services := workload.TailBench()
	seeds := make([]uint64, len(services))
	for si := range seeds {
		seeds[si] = seed
	}
	lat, pwr := make([][][]float64, len(loads)), make([][][]float64, len(loads))
	for li, load := range loads {
		lat[li], pwr[li], _ = sim.LCSurfaces(pm, wm, services, 16, load, seeds, simSec, 1)
	}
	var rows []Fig1Row
	for si, app := range services {
		for li, load := range loads {
			for _, c := range config.AllCores() {
				idx := config.Resource{Core: c, Cache: config.FourWays}.Index()
				rows = append(rows, Fig1Row{
					Service:  app.Name,
					Config:   c,
					LoadFrac: load,
					P99Ms:    lat[li][si][idx],
					PowerW:   16 * pwr[li][si][idx],
				})
			}
		}
	}
	return rows
}

// BestTradeoff returns, per service, the configuration consuming the
// least power among those whose p99 at the high load stays within the
// service's QoS target — the per-service "best performance-power
// trade-off" Fig. 1 calls out (e.g. Xapian {2,2,6}).
func BestTradeoff(rows []Fig1Row, highLoad float64) map[string]config.Core {
	qos := map[string]float64{}
	for _, app := range workload.TailBench() {
		qos[app.Name] = app.QoSTargetMs
	}
	type best struct {
		cfg config.Core
		pw  float64
	}
	bests := map[string]best{}
	for _, r := range rows {
		if r.LoadFrac != highLoad || r.P99Ms > qos[r.Service] {
			continue
		}
		if b, ok := bests[r.Service]; !ok || r.PowerW < b.pw {
			bests[r.Service] = best{r.Config, r.PowerW}
		}
	}
	out := map[string]config.Core{}
	for svc, b := range bests {
		out[svc] = b.cfg
	}
	return out
}

// WriteFig1 renders the characterisation in the paper's layout: per
// service, configurations sorted by tail latency at the high load.
func WriteFig1(w io.Writer, rows []Fig1Row, highLoad float64) {
	perSvc := map[string][]Fig1Row{}
	for _, r := range rows {
		perSvc[r.Service] = append(perSvc[r.Service], r)
	}
	for _, svc := range sortedKeys(perSvc) {
		svcRows := perSvc[svc]
		// Index by config for both loads.
		byCfg := map[config.Core]map[float64]Fig1Row{}
		for _, r := range svcRows {
			if byCfg[r.Config] == nil {
				byCfg[r.Config] = map[float64]Fig1Row{}
			}
			byCfg[r.Config][r.LoadFrac] = r
		}
		cfgs := config.AllCores()
		sort.Slice(cfgs, func(i, j int) bool {
			return byCfg[cfgs[i]][highLoad].P99Ms < byCfg[cfgs[j]][highLoad].P99Ms
		})
		fmt.Fprintf(w, "== %s (sorted by p99 at %.0f%% load)\n", svc, 100*highLoad)
		fmt.Fprintf(w, "%-10s %14s %14s %12s %12s\n", "config", "p99@hi (ms)", "p99@lo (ms)", "P@hi (W)", "P@lo (W)")
		for _, c := range cfgs {
			var lo Fig1Row
			hi := byCfg[c][highLoad]
			for load, r := range byCfg[c] {
				if load != highLoad {
					lo = r
				}
			}
			fmt.Fprintf(w, "%-10s %14.2f %14.2f %12.1f %12.1f\n",
				c, hi.P99Ms, lo.P99Ms, hi.PowerW, lo.PowerW)
		}
	}
}
