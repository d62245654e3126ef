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
// after-another loop it replaced, kept verbatim, plus the service-time
// read of the per-service table the runtime's training rows once staged
// for it.
func lcSurfacesSerial(pm *perf.Model, wm *power.Model, app *workload.Profile, k int, loadFrac float64, seed uint64, simSec, memInflation float64) (latMs, pwr, svcMs []float64) {
	latMs = make([]float64, config.NumResources)
	pwr = make([]float64, config.NumResources)
	svcMs = make([]float64, config.NumResources)
	qps := loadFrac * app.MaxQPS
	tbl := perf.NewSurfaceTable(pm, []*workload.Profile{app})
	tbl.Build(memInflation)
	for i, r := range config.AllResources() {
		ipc := tbl.IPC(0, i)
		meanSvc := tbl.ServiceTimeSec(0, i)
		svcMs[i] = meanSvc * 1e3
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
	return latMs, pwr, svcMs
}

// TestLCSurfacesMatchesSerial holds the characterisation of several
// services in one fan-out — tail latency, power and the service times
// read from the shared table — to the serial per-service loop bit for
// bit, whatever the host offers: the queue runs share nothing, so width
// may change wall time and nothing else. The seeds repeat one value, as
// Fig. 1's do, and skip others, as the training rows' seeds never do.
func TestLCSurfacesMatchesSerial(t *testing.T) {
	pm, wm := perf.New(true), power.New(true)
	variants := workload.SyntheticLC(101, 3)
	seeds := []uint64{7, 40, 7}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, infl := range []float64{1, 1.35} {
			gotLat, gotPwr, gotSvc := LCSurfaces(pm, wm, variants, 8, 0.8, seeds, 0.3, infl)
			if len(gotLat) != len(variants) || len(gotPwr) != len(variants) || len(gotSvc) != len(variants) {
				t.Fatalf("procs=%d/inflation=%v: %d latency, %d power and %d service-time rows for %d services",
					procs, infl, len(gotLat), len(gotPwr), len(gotSvc), len(variants))
			}
			for vi, app := range variants {
				name := fmt.Sprintf("procs=%d/variant=%d/inflation=%v", procs, vi, infl)
				wantLat, wantPwr, wantSvc := lcSurfacesSerial(pm, wm, app, 8, 0.8, seeds[vi], 0.3, infl)
				for i := range wantLat {
					if math.Float64bits(gotLat[vi][i]) != math.Float64bits(wantLat[i]) {
						t.Errorf("%s: latMs[%d] = %v, serial %v", name, i, gotLat[vi][i], wantLat[i])
					}
					if math.Float64bits(gotPwr[vi][i]) != math.Float64bits(wantPwr[i]) {
						t.Errorf("%s: pwr[%d] = %v, serial %v", name, i, gotPwr[vi][i], wantPwr[i])
					}
					if math.Float64bits(gotSvc[vi][i]) != math.Float64bits(wantSvc[i]) {
						t.Errorf("%s: svcMs[%d] = %v, serial %v", name, i, gotSvc[vi][i], wantSvc[i])
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
	silo := []*workload.Profile{mustApp(t, "silo")}
	for _, c := range []struct {
		name  string
		k     int
		seeds []uint64
	}{
		{"k = 0", 0, []uint64{1}},
		{"a seed missing", 8, nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LCSurfaces with %s did not panic", c.name)
				}
			}()
			LCSurfaces(pm, wm, silo, c.k, 0.8, c.seeds, 0.3, 1)
		}()
	}
}
