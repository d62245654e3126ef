package perf

import (
	"math"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/workload"
)

// inflations spans the operating range: below 1 (clamped to 1),
// uncontended, mid-contention (the characterisation default 1.35), and
// the saturation cap.
var inflations = []float64{0.5, 1, 1.35, 6}

// testWays are the four canonical allocations plus fractional counts
// from the unpartitioned LRU equilibrium's range, empty through the
// whole LLC.
var testWays = []float64{0.5, 1, 2, 4, 0, 0.3, 0.7, 1.5, 3, 7.25, 32}

// TestSurfaceTableEquivalence asserts exact float64 equality between
// every table read and the closed-form oracle over all applications ×
// 27 core configs × canonical and fractional ways × the inflation
// range, for both model variants. Point lookups are checked at every
// way count, the dense grid at the canonical ones.
func TestSurfaceTableEquivalence(t *testing.T) {
	apps := workload.All()
	for _, reconf := range []bool{true, false} {
		m := New(reconf)
		freq := m.FreqGHz()
		tbl := NewSurfaceTable(m, apps)
		for _, infl := range inflations {
			tbl.Build(infl)
			for a, app := range apps {
				for ci := 0; ci < config.NumCoreConfigs; ci++ {
					c := config.CoreByIndex(ci)
					for _, ways := range testWays {
						mr := tbl.MissRatioAt(a, ways)
						wantIPC := closedFormIPC(app, c, ways, infl, freq)
						if got := tbl.IPCAt(a, c, mr, infl, freq); math.Float64bits(got) != math.Float64bits(wantIPC) {
							t.Fatalf("reconf=%v %s %v/%vw infl=%v: point IPC %v != %v", reconf, app.Name, c, ways, infl, got, wantIPC)
						}
						wantMPI := app.MemFrac * app.L1MissRate * app.MissRatio(ways)
						if got := tbl.MissPerInstr(a, mr); math.Float64bits(got) != math.Float64bits(wantMPI) {
							t.Fatalf("%s %vw: missPerInstr %v != %v", app.Name, ways, got, wantMPI)
						}
						wantTr := wantIPC * freq * wantMPI * 64
						if got := tbl.TrafficAt(a, c, mr, infl); math.Float64bits(got) != math.Float64bits(wantTr) {
							t.Fatalf("%s %v/%vw: point traffic %v != %v", app.Name, c, ways, got, wantTr)
						}
						wi := config.CacheAlloc(ways).Index()
						if wi < 0 {
							continue
						}
						resIdx := ci*config.NumCacheAllocs + wi
						if got := tbl.IPC(a, resIdx); math.Float64bits(got) != math.Float64bits(wantIPC) {
							t.Fatalf("reconf=%v %s %v/%vw infl=%v: grid IPC %v != %v", reconf, app.Name, c, ways, infl, got, wantIPC)
						}
						if got := tbl.BIPS(a, resIdx); math.Float64bits(got) != math.Float64bits(wantIPC*freq) {
							t.Fatalf("%s: BIPS %v != %v", app.Name, got, wantIPC*freq)
						}
						if app.IsLC() && app.MaxQPS > 0 {
							wantSvc := math.Inf(1)
							if ips := wantIPC * freq * 1e9; ips > 0 {
								wantSvc = m.QueryInstr(app) / ips
							}
							if got := tbl.ServiceTimeSec(a, resIdx); math.Float64bits(got) != math.Float64bits(wantSvc) {
								t.Fatalf("%s: svc time %v != %v", app.Name, got, wantSvc)
							}
						}
					}
				}
			}
		}
	}
}

// TestSurfaceTableDVFSEquivalence covers IPCAt at non-nominal clocks
// (the DVFS baseline and fail-slow de-rating paths), canonical and
// fractional ways, and the inflation clamp.
func TestSurfaceTableDVFSEquivalence(t *testing.T) {
	apps := workload.All()
	m := New(true)
	tbl := NewSurfaceTable(m, apps)
	for _, freq := range []float64{1.2, 2.0, 3.6, m.FreqGHz()} {
		for _, infl := range []float64{0.5, 1.35} {
			for a, app := range apps {
				for ci := 0; ci < config.NumCoreConfigs; ci += 5 {
					c := config.CoreByIndex(ci)
					for _, ways := range testWays {
						want := closedFormIPC(app, c, ways, infl, freq)
						if got := tbl.IPCAt(a, c, tbl.MissRatioAt(a, ways), infl, freq); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s %v/%vw infl=%v @%vGHz: %v != %v", app.Name, c, ways, infl, freq, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSurfaceTableMonotone property-checks the modeled surfaces the
// runtime's search depends on: IPC is non-decreasing in each section
// width and in cache ways.
func TestSurfaceTableMonotone(t *testing.T) {
	apps := workload.All()
	m := New(true)
	tbl := NewSurfaceTable(m, apps)
	tbl.Build(1.35)
	for a, app := range apps {
		for ci := 0; ci < config.NumCoreConfigs; ci++ {
			c := config.CoreByIndex(ci)
			for wi := 0; wi < config.NumCacheAllocs; wi++ {
				cur := tbl.IPC(a, ci*config.NumCacheAllocs+wi)
				// Non-decreasing in ways.
				if wi+1 < config.NumCacheAllocs {
					next := tbl.IPC(a, ci*config.NumCacheAllocs+wi+1)
					if next < cur {
						t.Fatalf("%s %v: IPC decreases in ways (%v → %v)", app.Name, c, cur, next)
					}
				}
				// Non-decreasing when widening any one section.
				for _, wider := range widerCores(c) {
					next := tbl.IPC(a, wider.Index()*config.NumCacheAllocs+wi)
					if next < cur {
						t.Fatalf("%s: IPC decreases widening %v → %v (%v → %v)", app.Name, c, wider, cur, next)
					}
				}
			}
		}
	}
}

// widerCores returns the configurations reachable by widening exactly
// one section of c by one step.
func widerCores(c config.Core) []config.Core {
	var out []config.Core
	step := func(w config.Width) (config.Width, bool) {
		switch w {
		case config.W2:
			return config.W4, true
		case config.W4:
			return config.W6, true
		}
		return w, false
	}
	if fe, ok := step(c.FE); ok {
		out = append(out, config.Core{FE: fe, BE: c.BE, LS: c.LS})
	}
	if be, ok := step(c.BE); ok {
		out = append(out, config.Core{FE: c.FE, BE: be, LS: c.LS})
	}
	if ls, ok := step(c.LS); ok {
		out = append(out, config.Core{FE: c.FE, BE: c.BE, LS: ls})
	}
	return out
}

// TestSurfaceTableLookupsZeroAlloc pins the acceptance criterion that
// steady-state surface lookups allocate nothing.
func TestSurfaceTableLookupsZeroAlloc(t *testing.T) {
	apps := workload.All()
	m := New(true)
	tbl := NewSurfaceTable(m, apps)
	tbl.Build(1.35)
	c := config.CoreByIndex(13)
	allocs := testing.AllocsPerRun(100, func() {
		sink := 0.0
		for a := range apps {
			sink += tbl.IPC(a, 53)
			sink += tbl.BIPS(a, 53)
			sink += tbl.ServiceTimeSec(a, 53)
			sink += tbl.IPCAt(a, c, tbl.MissRatioAt(a, 2), 1.2, 3.93)
			sink += tbl.IPCAt(a, c, tbl.MissRatioAt(a, 1.5), 1.2, 3.93)
			sink += tbl.TrafficAt(a, c, tbl.MissRatioAt(a, 2), 1.2)
			sink += tbl.MissPerInstr(a, tbl.MissRatioAt(a, 2))
		}
		if sink == math.Inf(1) {
			t.Error("unexpected Inf")
		}
	})
	if allocs != 0 {
		t.Fatalf("surface lookups allocate %v per run, want 0", allocs)
	}
}

// TestSurfaceTableRebuild checks Build re-renders for a new inflation
// and counts its work.
func TestSurfaceTableRebuild(t *testing.T) {
	apps := workload.SPEC()[:4]
	m := New(true)
	tbl := NewSurfaceTable(m, apps)
	b0, _ := tbl.Stats()
	if b0 != 1 {
		t.Fatalf("construction ran %d builds, want 1", b0)
	}
	v1 := tbl.IPC(0, 0)
	tbl.Build(3)
	v3 := tbl.IPC(0, 0)
	if want := closedFormIPC(apps[0], config.CoreByIndex(0), config.CacheAllocs[0].Ways(), 3, m.FreqGHz()); math.Float64bits(v3) != math.Float64bits(want) {
		t.Fatalf("rebuilt at inflation 3: %v != %v", v3, want)
	}
	if v3 >= v1 {
		t.Fatalf("IPC did not drop under inflation (%v → %v)", v1, v3)
	}
	b, l := tbl.Stats()
	if b != 2 || l < 2 {
		t.Fatalf("Stats() = (%d, %d), want 2 builds and ≥2 lookups", b, l)
	}
	// Sub-unit inflation clamps to 1, as the model does.
	tbl.Build(0.5)
	if got, want := tbl.IPC(0, 0), closedFormIPC(apps[0], config.CoreByIndex(0), config.CacheAllocs[0].Ways(), 0.5, m.FreqGHz()); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("clamped build: %v != %v", got, want)
	}
}

// TestWayIndex pins the canonical allocation ranks and the fractional
// miss.
func TestWayIndex(t *testing.T) {
	for i, alloc := range config.CacheAllocs {
		if got := wayIndex(alloc.Ways()); got != i {
			t.Fatalf("wayIndex(%v) = %d, want %d", alloc.Ways(), got, i)
		}
	}
	for _, w := range []float64{0, 0.7, 1.5, 3, 32, math.NaN()} {
		if got := wayIndex(w); got != -1 {
			t.Fatalf("wayIndex(%v) = %d, want -1", w, got)
		}
	}
}

func BenchmarkSurfaceLookup(b *testing.B) {
	apps := workload.All()
	m := New(true)
	tbl := NewSurfaceTable(m, apps)
	app := apps[0]
	c := config.CoreByIndex(13)
	b.Run("point-model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.IPC(app, c, 2, 1.2)
		}
	})
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl.IPCAt(0, c, tbl.MissRatioAt(0, 2), 1.2, 3.9)
		}
	})
	b.Run("table-fractional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl.IPCAt(0, c, tbl.MissRatioAt(0, 1.5), 1.2, 3.9)
		}
	})
}
