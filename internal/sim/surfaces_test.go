package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/perf"
	"cuttlesys/internal/power"
	"cuttlesys/internal/qsim"
	"cuttlesys/internal/stats"
	"cuttlesys/internal/workload"
)

// lcSurfacesSerial is the oracle for LCSurfaces: the one-configuration-
// after-another loop it replaced, kept verbatim.
func lcSurfacesSerial(pm *perf.Model, wm *power.Model, app *workload.Profile, k int, loadFrac float64, seed uint64, simSec, memInflation float64) (latMs, pwr []float64) {
	latMs = make([]float64, config.NumResources)
	pwr = make([]float64, config.NumResources)
	qps := loadFrac * app.MaxQPS
	tbl := perf.NewSurfaceTable(pm, []*workload.Profile{app})
	tbl.Build(memInflation)
	for i, r := range config.AllResources() {
		ipc := tbl.IPC(0, i)
		meanSvc := tbl.ServiceTimeSec(0, i)
		svc := qsim.NewService(seed+uint64(i), k)
		var sojourns []float64
		steps := int(math.Ceil(simSec / 0.1))
		for s := 0; s < steps; s++ {
			sojourns = append(sojourns, svc.Step(0.1, qps, meanSvc, app.QuerySigma)...)
		}
		latMs[i] = stats.P99(sojourns) * 1e3
		util := math.Min(1, qps*meanSvc/float64(k))
		pwr[i] = wm.Core(app, r.Core, ipc*util)
	}
	return latMs, pwr
}

// TestLCSurfacesMatchesSerial holds the concurrent characterisation to
// the serial loop bit for bit, whatever the host offers: the queue
// runs share nothing, so width may change wall time and nothing else.
func TestLCSurfacesMatchesSerial(t *testing.T) {
	pm, wm := perf.New(true), power.New(true)
	variants := workload.SyntheticLC(101, 2)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for vi, app := range variants {
			for _, infl := range []float64{1, 1.35} {
				name := fmt.Sprintf("procs=%d/variant=%d/inflation=%v", procs, vi, infl)
				seed := uint64(7 + vi)
				wantLat, wantPwr := lcSurfacesSerial(pm, wm, app, 8, 0.8, seed, 0.3, infl)
				gotLat, gotPwr := LCSurfaces(pm, wm, app, 8, 0.8, seed, 0.3, infl)
				for i := range wantLat {
					if math.Float64bits(gotLat[i]) != math.Float64bits(wantLat[i]) {
						t.Errorf("%s: latMs[%d] = %v, serial %v", name, i, gotLat[i], wantLat[i])
					}
					if math.Float64bits(gotPwr[i]) != math.Float64bits(wantPwr[i]) {
						t.Errorf("%s: pwr[%d] = %v, serial %v", name, i, gotPwr[i], wantPwr[i])
					}
				}
			}
		}
	}
}

// TestLCSurfacesPanicsOnCaller checks that invalid input still unwinds
// the calling goroutine, where a caller can recover it, rather than a
// worker, where it would kill the process.
func TestLCSurfacesPanicsOnCaller(t *testing.T) {
	pm, wm := perf.New(true), power.New(true)
	defer func() {
		if recover() == nil {
			t.Fatal("LCSurfaces with k = 0 did not panic")
		}
	}()
	LCSurfaces(pm, wm, mustApp(t, "silo"), 0, 0.8, 1, 0.3, 1)
}
