package perf

import (
	"math"
	"testing"
	"testing/quick"

	"cuttlesys/internal/config"
	"cuttlesys/internal/workload"
)

func model() *Model { return New(true) }

// closedFormIPC is the pointwise model as one function — the verbatim
// body Model.IPCAtFreq had before the CPI formula was split into
// coreTerms and foldIPC. It is the oracle the table's equivalence tests
// check every lookup against, so a change to the shared helpers cannot
// also change the reference they are held to.
func closedFormIPC(app *workload.Profile, c config.Core, ways float64, memInflation, freqGHz float64) float64 {
	if memInflation < 1 {
		memInflation = 1
	}
	cycleScale := freqGHz / config.BaseFreqGHz
	sFE, sBE, sLS := c.FE.Scale(), c.BE.Scale(), c.LS.Scale()

	// --- compute component ---
	ipcPeak := app.ILP *
		math.Pow(sFE, app.FESens) *
		math.Pow(sBE, app.BESens) *
		math.Pow(sLS, app.LSSens)
	widthCap := math.Min(float64(c.FE), float64(c.BE))
	if app.MemFrac > 0 {
		widthCap = math.Min(widthCap, float64(c.LS)/app.MemFrac)
	}
	if ipcPeak > widthCap {
		ipcPeak = widthCap
	}
	cpiCompute := 1 / ipcPeak

	// --- branch component ---
	branchPenalty := baseBranchPenalty * (1 + 0.5*(1-sFE))
	cpiBranch := app.BrMPKI / 1000 * branchPenalty

	// --- memory component ---
	missRatio := app.MissRatio(ways)
	avgLat := (float64(config.L2Latency)*(1-missRatio) +
		float64(config.DRAMLatency)*missRatio*memInflation) * cycleScale
	lsqCap := 1 + float64(config.LSQSize(c.LS))/8.0
	robCap := 1 + float64(config.ROBSize(c.FE))/16.0
	effMLP := math.Min(app.MLP, math.Min(lsqCap, robCap))
	if effMLP <= 0 {
		effMLP = 1e-9
	}
	cpiMem := app.MemFrac * app.L1MissRate * avgLat / effMLP

	cpi := cpiCompute + cpiBranch + cpiMem
	if cpi <= 0 {
		return 0
	}
	return 1 / cpi
}

// table stages apps under m for the tests that read the production
// evaluator.
func table(m *Model, apps ...*workload.Profile) *SurfaceTable { return NewSurfaceTable(m, apps) }

func TestFreqPenalty(t *testing.T) {
	if New(true).FreqGHz() >= New(false).FreqGHz() {
		t.Fatal("reconfigurable cores must run slower than fixed cores")
	}
	if New(false).FreqGHz() != config.BaseFreqGHz {
		t.Fatal("fixed cores must run at base frequency")
	}
}

func TestIPCPositiveAndBounded(t *testing.T) {
	m := model()
	for _, app := range workload.All() {
		for _, c := range config.AllCores() {
			for _, a := range config.CacheAllocs {
				ipc := m.IPC(app, c, a.Ways(), 1)
				if ipc <= 0 {
					t.Fatalf("%s %v: IPC %v <= 0", app.Name, c, ipc)
				}
				if ipc > 6 {
					t.Fatalf("%s %v: IPC %v exceeds machine width", app.Name, c, ipc)
				}
			}
		}
	}
}

// IPC must be monotone non-decreasing in every section width and in
// cache ways — the structure DDS and the QoS scan rely on.
func TestIPCMonotoneInWidths(t *testing.T) {
	m := model()
	for _, app := range workload.All() {
		for _, a := range config.CacheAllocs {
			for _, base := range config.AllCores() {
				ipc0 := m.IPC(app, base, a.Ways(), 1)
				for _, upgrade := range []config.Core{
					{FE: wider(base.FE), BE: base.BE, LS: base.LS},
					{FE: base.FE, BE: wider(base.BE), LS: base.LS},
					{FE: base.FE, BE: base.BE, LS: wider(base.LS)},
				} {
					if !upgrade.Valid() {
						continue
					}
					if ipc1 := m.IPC(app, upgrade, a.Ways(), 1); ipc1 < ipc0-1e-12 {
						t.Fatalf("%s: IPC fell from %v to %v upgrading %v -> %v",
							app.Name, ipc0, ipc1, base, upgrade)
					}
				}
			}
		}
	}
}

func wider(w config.Width) config.Width {
	switch w {
	case config.W2:
		return config.W4
	case config.W4:
		return config.W6
	}
	return config.Width(8) // invalid; filtered by Valid()
}

func TestIPCMonotoneInWays(t *testing.T) {
	m := model()
	for _, app := range workload.All() {
		for _, c := range config.AllCores() {
			prev := m.IPC(app, c, 0.5, 1)
			for _, a := range []float64{1, 2, 4, 8} {
				cur := m.IPC(app, c, a, 1)
				if cur < prev-1e-12 {
					t.Fatalf("%s %v: IPC fell with more cache ways", app.Name, c)
				}
				prev = cur
			}
		}
	}
}

func TestIPCDegradesWithMemInflation(t *testing.T) {
	m := model()
	app, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	base := m.IPC(app, config.Widest, 2, 1)
	loaded := m.IPC(app, config.Widest, 2, 2)
	if loaded >= base {
		t.Fatalf("memory-bound app IPC should drop under bandwidth contention: %v -> %v", base, loaded)
	}
	// Inflation below 1 is clamped.
	if m.IPC(app, config.Widest, 2, 0.5) != base {
		t.Fatal("memInflation < 1 should clamp to 1")
	}
}

// The bottleneck section must differ across applications as in Fig. 1:
// Xapian gains most from widening LS, Moses from widening FE.
func TestSectionBottlenecksMatchFig1(t *testing.T) {
	m := model()
	gain := func(name string, widen func(config.Core) config.Core) float64 {
		app, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		base := config.Narrowest
		return m.IPC(app, widen(base), 4, 1) / m.IPC(app, base, 4, 1)
	}
	wFE := func(c config.Core) config.Core { c.FE = config.W6; return c }
	wBE := func(c config.Core) config.Core { c.BE = config.W6; return c }
	wLS := func(c config.Core) config.Core { c.LS = config.W6; return c }

	if g, f := gain("xapian", wLS), gain("xapian", wFE); g <= f {
		t.Errorf("xapian: LS gain %v should exceed FE gain %v", g, f)
	}
	if g, b := gain("xapian", wLS), gain("xapian", wBE); g <= b {
		t.Errorf("xapian: LS gain %v should exceed BE gain %v", g, b)
	}
	if g, l := gain("moses", wFE), gain("moses", wLS); g <= l {
		t.Errorf("moses: FE gain %v should exceed LS gain %v", g, l)
	}
}

// Compute-bound apps should barely react to cache; memory-bound apps
// strongly. This contrast is what makes per-app configuration worth it.
func TestCacheSensitivityContrast(t *testing.T) {
	m := model()
	ratio := func(name string) float64 {
		app, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return m.IPC(app, config.Widest, 4, 1) / m.IPC(app, config.Widest, 0.5, 1)
	}
	if mcf, gamess := ratio("mcf"), ratio("gamess"); mcf < 1.3 || gamess > 1.1 || mcf <= gamess {
		t.Errorf("cache sensitivity contrast wrong: mcf %v, gamess %v", mcf, gamess)
	}
}

func TestBIPSConsistentWithIPC(t *testing.T) {
	m := model()
	tbl := table(m, workload.SPEC()[0])
	for j := 0; j < config.NumResources; j++ {
		if got, want := tbl.BIPS(0, j), tbl.IPC(0, j)*m.FreqGHz(); got != want {
			t.Fatalf("resource %d: BIPS = %v, want %v", j, got, want)
		}
	}
}

func TestDRAMTraffic(t *testing.T) {
	m := model()
	tbl := table(m, mustApp(t, "mcf"), mustApp(t, "gamess"))
	const mcf, gamess = 0, 1
	if tm, tg := tbl.TrafficAt(mcf, config.Widest, tbl.MissRatioAt(mcf, 1), 1), tbl.TrafficAt(gamess, config.Widest, tbl.MissRatioAt(gamess, 1), 1); tm <= tg {
		t.Fatalf("mcf traffic %v should exceed gamess traffic %v", tm, tg)
	}
	// More cache -> less traffic.
	hi := tbl.TrafficAt(mcf, config.Widest, tbl.MissRatioAt(mcf, 0.5), 1)
	lo := tbl.TrafficAt(mcf, config.Widest, tbl.MissRatioAt(mcf, 4), 1)
	if lo >= hi {
		t.Fatalf("traffic should fall with more ways: %v -> %v", hi, lo)
	}
}

func TestQueryInstrCalibration(t *testing.T) {
	m := model()
	widest4 := config.Resource{Core: config.Widest, Cache: config.FourWays}.Index()
	for _, app := range workload.TailBench() {
		q := m.QueryInstr(app)
		if q <= 0 {
			t.Fatalf("%s: non-positive query demand", app.Name)
		}
		// At the widest config with 4 ways, 16 cores at the knee load
		// must run at exactly SatUtil utilisation by construction.
		st := table(m, app).ServiceTimeSec(0, widest4)
		util := app.MaxQPS * st / 16
		if diff := util - app.SatUtil; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: knee utilisation %v, want %v", app.Name, util, app.SatUtil)
		}
	}
}

func TestQueryInstrPanicsOnBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("QueryInstr on batch app did not panic")
		}
	}()
	model().QueryInstr(workload.SPEC()[0])
}

func TestServiceTimeLongerOnNarrowCores(t *testing.T) {
	m := model()
	for _, app := range workload.TailBench() {
		tbl := table(m, app)
		fast := tbl.ServiceTimeSec(0, config.Resource{Core: config.Widest, Cache: config.FourWays}.Index())
		slow := tbl.ServiceTimeSec(0, config.Resource{Core: config.Narrowest, Cache: config.HalfWay}.Index())
		if slow <= fast {
			t.Fatalf("%s: narrow-core service time %v not above wide-core %v", app.Name, slow, fast)
		}
	}
}

func TestIPCMonotonePropertySynthetic(t *testing.T) {
	m := model()
	if err := quick.Check(func(seed uint64, ci uint8, ai uint8) bool {
		app := workload.Synthetic(seed, 1)[0]
		c := config.CoreByIndex(int(ci) % config.NumCoreConfigs)
		ways := config.CacheAllocs[int(ai)%config.NumCacheAllocs].Ways()
		ipcNarrow := m.IPC(app, config.Narrowest, ways, 1)
		ipcThis := m.IPC(app, c, ways, 1)
		ipcWide := m.IPC(app, config.Widest, ways, 1)
		return ipcNarrow-1e-12 <= ipcThis && ipcThis <= ipcWide+1e-12
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIPCAtFreqMemoryBoundBenefit(t *testing.T) {
	// Lowering the clock shrinks memory latency in cycles, so
	// memory-bound applications lose less than frequency-proportional
	// throughput while compute-bound ones lose almost exactly f.
	tbl := table(model(), mustApp(t, "mcf"), mustApp(t, "gamess"))
	ratio := func(a int) float64 {
		lo := tbl.IPCAt(a, config.Widest, tbl.MissRatioAt(a, 2), 1, 2.4) * 2.4
		hi := tbl.IPCAt(a, config.Widest, tbl.MissRatioAt(a, 2), 1, 4.0) * 4.0
		return lo / hi
	}
	rm, rg := ratio(0), ratio(1)
	if rm <= rg {
		t.Fatalf("memory-bound BIPS retention %v should exceed compute-bound %v", rm, rg)
	}
	if rg < 0.55 || rg > 0.68 {
		t.Fatalf("compute-bound retention %v should be near f ratio 0.6", rg)
	}
}

// TestIPCMatchesClosedForm pins Model.IPC — coreTerms folded by
// foldIPC — to the closed-form oracle at the design clock, for both
// model variants, every core, and canonical and fractional ways.
func TestIPCMatchesClosedForm(t *testing.T) {
	for _, reconf := range []bool{true, false} {
		m := New(reconf)
		for _, app := range workload.All() {
			for _, c := range config.AllCores() {
				for _, ways := range testWays {
					want := closedFormIPC(app, c, ways, 1.35, m.FreqGHz())
					if got := m.IPC(app, c, ways, 1.35); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("reconf=%v %s %v/%vw: IPC %v != closed form %v", reconf, app.Name, c, ways, got, want)
					}
				}
			}
		}
	}
}

// mustApp resolves a workload profile by name, failing the test on a
// bad name so the error is never silently dropped.
func mustApp(t testing.TB, name string) *workload.Profile {
	t.Helper()
	app, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return app
}
