package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cuttlesys/internal/config"
	"cuttlesys/internal/perf"
	"cuttlesys/internal/power"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/stats"
	"cuttlesys/internal/workload"
)

func testMachine(t *testing.T, seed uint64) *Machine {
	t.Helper()
	lc, err := workload.ByName("xapian")
	if err != nil {
		t.Fatal(err)
	}
	_, test := workload.SplitTrainTest(1, 16)
	return New(Spec{
		Seed:           seed,
		LC:             lc,
		Batch:          workload.Mix(seed, test, 16),
		Reconfigurable: true,
	})
}

func widestAlloc(m *Machine) Allocation {
	return Uniform(len(m.Batch()), m.LC() != nil, config.NumMachineCore/2, config.Widest, config.OneWay)
}

func TestMachineConstruction(t *testing.T) {
	m := testMachine(t, 1)
	if len(m.Batch()) != 16 {
		t.Fatalf("batch jobs = %d, want 16", len(m.Batch()))
	}
}

func TestNewPanicsOnBadSpec(t *testing.T) {
	lc := mustApp(t, "xapian")
	batch := workload.SPEC()[:2]
	cases := []Spec{
		{Batch: []*workload.Profile{lc}},                     // LC listed as batch
		{LC: batch[0]},                                       // batch listed as LC
		{LC: lc, Batch: []*workload.Profile{{Name: "junk"}}}, // invalid profile
	}
	for i, spec := range cases {
		func() {
			defer func() {
				// A bad spec panics in sim's own words, not deeper down.
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "sim: ") {
					t.Errorf("case %d: New panicked with %q, want a sim: message", i, msg)
				}
			}()
			New(spec)
		}()
	}
}

func TestRunBasics(t *testing.T) {
	m := testMachine(t, 2)
	alloc := widestAlloc(m)
	res := m.Run(alloc, 0.1, 0.8*m.LC().MaxQPS)
	if res.PowerW <= 0 {
		t.Fatal("non-positive chip power")
	}
	if len(res.LC[0].Sojourns) == 0 {
		t.Fatal("no LC queries at 80% load")
	}
	for i, b := range res.BatchBIPS {
		if b <= 0 {
			t.Fatalf("batch job %d executed nothing", i)
		}
		if got, want := res.BatchInstrB[i], b*0.1; math.Abs(got-want) > 1e-12 {
			t.Fatalf("instr accounting inconsistent: %v vs %v", got, want)
		}
	}
	if m.Now() != 0.1 {
		t.Fatal("clock did not advance")
	}
}

func TestGatedJobsExecuteNothing(t *testing.T) {
	m := testMachine(t, 3)
	alloc := widestAlloc(m)
	alloc.Batch[0].Gated = true
	alloc.Batch[5].Gated = true
	res := m.Run(alloc, 0.1, 0.5*m.LC().MaxQPS)
	if res.BatchBIPS[0] != 0 || res.BatchBIPS[5] != 0 {
		t.Fatal("gated jobs executed instructions")
	}
	if res.BatchBIPS[1] == 0 {
		t.Fatal("non-gated job did not run")
	}
}

func TestGatingSavesPower(t *testing.T) {
	run := func(gated int) float64 {
		m := testMachine(t, 4)
		alloc := widestAlloc(m)
		for i := 0; i < gated; i++ {
			alloc.Batch[i].Gated = true
		}
		return m.Run(alloc, 0.1, 0.5*m.LC().MaxQPS).PowerW
	}
	if run(8) >= run(0) {
		t.Fatal("gating cores did not reduce chip power")
	}
}

func TestNarrowConfigsSavePowerAndThroughput(t *testing.T) {
	run := func(c config.Core) (float64, float64) {
		m := testMachine(t, 5)
		alloc := Uniform(16, true, 16, c, config.OneWay)
		res := m.Run(alloc, 0.1, 0.5*m.LC().MaxQPS)
		return stats.Sum(res.BatchBIPS), res.PowerW
	}
	wideB, wideP := run(config.Widest)
	narrowB, narrowP := run(config.Narrowest)
	if narrowP >= wideP {
		t.Fatalf("narrow config power %v not below wide %v", narrowP, wideP)
	}
	if narrowB >= wideB {
		t.Fatalf("narrow config throughput %v not below wide %v", narrowB, wideB)
	}
}

func TestLCTailLatencyRespondsToConfig(t *testing.T) {
	p99 := func(c config.Core, ways config.CacheAlloc) float64 {
		m := testMachine(t, 6)
		alloc := widestAlloc(m)
		alloc.LCCore = c
		alloc.LCCache = ways
		var all []float64
		for i := 0; i < 10; i++ {
			all = append(all, m.Run(alloc, 0.1, 0.8*m.LC().MaxQPS).LC[0].Sojourns...)
		}
		return stats.P99(all)
	}
	fast := p99(config.Widest, config.FourWays)
	slow := p99(config.Narrowest, config.HalfWay)
	if slow <= fast {
		t.Fatalf("narrow LC config p99 %v not above wide %v", slow, fast)
	}
}

func TestTailLatencyLoadDependence(t *testing.T) {
	// Fig. 1: at low load even narrow configs keep tail latency low;
	// at high load they blow up.
	p99At := func(load float64) float64 {
		m := testMachine(t, 7)
		alloc := widestAlloc(m)
		alloc.LCCore = config.Core{FE: config.W4, BE: config.W4, LS: config.W2}
		alloc.LCCache = config.FourWays
		var all []float64
		for i := 0; i < 10; i++ {
			all = append(all, m.Run(alloc, 0.1, load*m.LC().MaxQPS).LC[0].Sojourns...)
		}
		return stats.P99(all)
	}
	lo, hi := p99At(0.2), p99At(0.95)
	if hi < 2*lo {
		t.Fatalf("high-load p99 %v should far exceed low-load %v", hi, lo)
	}
}

func TestBandwidthContention(t *testing.T) {
	// A machine full of memory-bound jobs should converge to inflation
	// above 1; compute-bound jobs should not.
	mcf := mustApp(t, "mcf")
	gamess := mustApp(t, "gamess")
	mk := func(app *workload.Profile) float64 {
		jobs := make([]*workload.Profile, 32)
		for i := range jobs {
			p := *app
			jobs[i] = &p
		}
		m := New(Spec{Seed: 8, Batch: jobs, Reconfigurable: true})
		alloc := Uniform(32, false, 0, config.Widest, config.OneWay)
		return m.Run(alloc, 0.1, 0).Inflation
	}
	if got := mk(mcf); got <= 1 {
		t.Errorf("32 mcf copies should saturate DRAM bandwidth, inflation %v", got)
	}
	if got := mk(gamess); got != 1 {
		t.Errorf("32 gamess copies should not contend, inflation %v", got)
	}
}

func TestNoPartitionInterference(t *testing.T) {
	// Without partitioning, a cache-hungry co-runner set squeezes
	// everyone: a job's effective ways shrink versus partitioned mode.
	m := testMachine(t, 9)
	part := widestAlloc(m)
	part.LCCache = config.FourWays
	shared := part
	shared.NoPartition = true
	rp := m.Run(part, 0.1, 0.5*m.LC().MaxQPS)
	rs := m.Run(shared, 0.1, 0.5*m.LC().MaxQPS)
	if rs.LC[0].EffWays == rp.LC[0].EffWays {
		t.Fatal("partitioned and shared LLC should differ for the LC service")
	}
	total := rs.LC[0].EffWays
	for _, w := range rs.EffWays {
		total += w
	}
	// LC spans multiple cores; its occupancy counts once.
	if math.Abs(total-float64(config.LLCWays)) > 1e-6 {
		t.Fatalf("shared-mode effective ways sum to %v, want 32", total)
	}
}

func TestValidateRejectsBadAllocations(t *testing.T) {
	m := testMachine(t, 10)
	good := widestAlloc(m)
	if err := good.Validate(16, true); err != nil {
		t.Fatalf("good allocation rejected: %v", err)
	}
	cases := []func(a *Allocation){
		func(a *Allocation) { a.Batch = a.Batch[:10] },
		func(a *Allocation) { a.LCCores = 0 },
		func(a *Allocation) { a.LCCores = 64 },
		func(a *Allocation) { a.LCCore = config.Core{FE: 3, BE: 2, LS: 2} },
		func(a *Allocation) { a.LCCache = config.CacheAlloc(-1) },
		func(a *Allocation) {
			for i := range a.Batch {
				a.Batch[i].Cache = config.FourWays
			}
		}, // 16*4 + LC 1 = 65 ways
	}
	for i, mutate := range cases {
		a := widestAlloc(m)
		mutate(&a)
		if err := a.Validate(16, true); err == nil {
			t.Errorf("case %d: bad allocation accepted", i)
		}
	}
}

func TestHalfWayPairing(t *testing.T) {
	a := Uniform(4, false, 0, config.Widest, config.HalfWay)
	// 4 half-way jobs pair onto 2 ways.
	if got := a.TotalWays(false); got != 2 {
		t.Fatalf("TotalWays = %v, want 2", got)
	}
	a.Batch[3].Cache = config.OneWay
	// 3 halves -> 2 ways (ceil) + 1 way.
	if got := a.TotalWays(false); got != 3 {
		t.Fatalf("TotalWays = %v, want 3", got)
	}
}

func TestMultiplexFactor(t *testing.T) {
	a := Uniform(16, true, 16, config.Widest, config.OneWay)
	if got := a.MultiplexFactor(); got != 1 {
		t.Fatalf("16 jobs on 16 cores: mux = %v, want 1", got)
	}
	a.LCCores = 17 // core relocated to the LC service
	if got := a.MultiplexFactor(); math.Abs(got-15.0/16) > 1e-12 {
		t.Fatalf("16 jobs on 15 cores: mux = %v, want 15/16", got)
	}
}

func TestMultiplexReducesThroughputAndPower(t *testing.T) {
	run := func(lcCores int) (float64, float64) {
		m := testMachine(t, 11)
		alloc := widestAlloc(m)
		alloc.LCCores = lcCores
		res := m.Run(alloc, 0.1, 0.5*m.LC().MaxQPS)
		return stats.Sum(res.BatchBIPS), res.PowerW
	}
	b16, _ := run(16)
	b20, _ := run(20)
	if b20 >= b16*13.0/16 {
		t.Fatalf("relocating 4 cores should cut batch throughput ~4/16: %v -> %v", b16, b20)
	}
}

func TestMaxPowerSane(t *testing.T) {
	m := testMachine(t, 12)
	maxP := m.MaxPowerW()
	res := m.Run(widestAlloc(m), 0.1, 0.8*m.LC().MaxQPS)
	// The no-gating run should be in the vicinity of the reference
	// budget (same order; LC idleness keeps it below).
	if res.PowerW > maxP*1.1 || res.PowerW < maxP*0.4 {
		t.Fatalf("no-gating power %v vs budget %v implausible", res.PowerW, maxP)
	}
	if maxP < 60 || maxP > 220 {
		t.Fatalf("32-core budget %v W outside plausible band", maxP)
	}
}

func TestBatchSurfaces(t *testing.T) {
	pm, wm := perf.New(true), power.New(true)
	app := workload.SPEC()[0]
	bips, pwr := BatchSurfaces(pm, wm, app)
	if len(bips) != config.NumResources || len(pwr) != config.NumResources {
		t.Fatal("surface lengths wrong")
	}
	widest := config.Resource{Core: config.Widest, Cache: config.FourWays}.Index()
	narrowest := config.Resource{Core: config.Narrowest, Cache: config.HalfWay}.Index()
	if bips[widest] <= bips[narrowest] {
		t.Fatal("widest config should outperform narrowest")
	}
	if pwr[widest] <= pwr[narrowest] {
		t.Fatal("widest config should consume more power")
	}
}

func TestLCSurfaces(t *testing.T) {
	pm, wm := perf.New(true), power.New(true)
	app := mustApp(t, "silo")
	lats, pwrs, _ := LCSurfaces(pm, wm, []*workload.Profile{app}, 16, 0.8, []uint64{1}, 0.5, 1)
	if len(lats) != 1 || len(pwrs) != 1 {
		t.Fatal("surface count wrong")
	}
	lat, pwr := lats[0], pwrs[0]
	if len(lat) != config.NumResources || len(pwr) != config.NumResources {
		t.Fatal("surface lengths wrong")
	}
	widest := config.Resource{Core: config.Widest, Cache: config.FourWays}.Index()
	narrowest := config.Resource{Core: config.Narrowest, Cache: config.HalfWay}.Index()
	if lat[widest] >= lat[narrowest] {
		t.Fatalf("widest config p99 %v should be below narrowest %v", lat[widest], lat[narrowest])
	}
	for i, l := range lat {
		if l <= 0 {
			t.Fatalf("config %d: non-positive tail latency", i)
		}
	}
}

func TestMeasureNoise(t *testing.T) {
	r := rng.New(1)
	const n = 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := Measure(r, 100, 0.05)
		if v < 100*(1-0.16) || v > 100*(1+0.16) {
			t.Fatalf("Measure outside ±3σ clamp: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-100) > 0.5 {
		t.Fatalf("Measure biased: mean %v", mean)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() PhaseResult {
		m := testMachine(t, 42)
		return m.Run(widestAlloc(m), 0.1, 0.8*m.LC().MaxQPS)
	}
	a, b := run(), run()
	if a.PowerW != b.PowerW || len(a.LC[0].Sojourns) != len(b.LC[0].Sojourns) {
		t.Fatal("machine runs are not deterministic")
	}
}

func TestAllocationPropertyWaysBudget(t *testing.T) {
	// Any allocation built from valid per-job allocations with at most
	// 8 four-way jobs fits the budget check logic consistently.
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		a := Allocation{Batch: make([]BatchAssign, 8)}
		for i := range a.Batch {
			a.Batch[i] = BatchAssign{
				Core:  config.CoreByIndex(r.Intn(config.NumCoreConfigs)),
				Cache: config.CacheAllocs[r.Intn(config.NumCacheAllocs)],
			}
		}
		total := a.TotalWays(false)
		// Recompute naively.
		naive, halves := 0.0, 0
		for _, b := range a.Batch {
			if b.Cache == config.HalfWay {
				halves++
			} else {
				naive += b.Cache.Ways()
			}
		}
		naive += float64((halves + 1) / 2)
		return math.Abs(total-naive) < 1e-9
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiServiceMachine(t *testing.T) {
	xapian := mustApp(t, "xapian")
	silo := mustApp(t, "silo")
	_, test := workload.SplitTrainTest(1, 16)
	m := New(Spec{
		Seed: 20, LC: xapian, ExtraLCs: []*workload.Profile{silo},
		Batch: workload.Mix(20, test, 16), Reconfigurable: true,
	})
	if len(m.Services()) != 2 {
		t.Fatal("extra service not registered")
	}
	a := Uniform(16, true, 8, config.Widest, config.OneWay)
	a.ExtraLC = []LCAssign{{Cores: 8, Core: config.Widest, Cache: config.FourWays}}
	a.LCCache = config.FourWays
	pr := m.RunMulti(a, 0.1, []float64{0.4 * xapian.MaxQPS, 0.3 * silo.MaxQPS})
	if len(pr.LC) != 2 || len(pr.LC[1].Sojourns) == 0 {
		t.Fatal("extra service executed no queries")
	}
	if pr.LC[1].CorePowerW <= 0 || pr.LC[1].MeanSvc <= 0 {
		t.Fatal("extra service accounting missing")
	}
	if len(pr.LC[0].Sojourns) == 0 {
		t.Fatal("primary service executed no queries")
	}
	// Both services plus 16 batch cores fill the machine exactly.
	if got := a.batchCores(); got != 16 {
		t.Fatalf("batch cores = %d, want 16", got)
	}
}

func TestRunPanicsOnMultiServiceMachine(t *testing.T) {
	xapian := mustApp(t, "xapian")
	silo := mustApp(t, "silo")
	m := New(Spec{Seed: 1, LC: xapian, ExtraLCs: []*workload.Profile{silo}, Reconfigurable: true})
	defer func() {
		if recover() == nil {
			t.Fatal("Run on a multi-service machine did not panic")
		}
	}()
	a := Uniform(0, true, 8, config.Widest, config.OneWay)
	m.Run(a, 0.1, 1000)
}

func TestMultiServiceValidation(t *testing.T) {
	xapian := mustApp(t, "xapian")
	silo := mustApp(t, "silo")
	m := New(Spec{Seed: 1, LC: xapian, ExtraLCs: []*workload.Profile{silo}, Reconfigurable: true})
	good := Uniform(0, true, 8, config.Widest, config.OneWay)
	good.ExtraLC = []LCAssign{{Cores: 8, Core: config.Widest, Cache: config.OneWay}}
	cases := []struct {
		name   string
		mutate func(a *Allocation)
	}{
		{"missing extra assignment", func(a *Allocation) { a.ExtraLC = nil }},
		{"zero cores", func(a *Allocation) { a.ExtraLC[0].Cores = 0 }},
		{"too many cores", func(a *Allocation) { a.ExtraLC[0].Cores = 40 }},
		{"bad config", func(a *Allocation) { a.ExtraLC[0].Core = config.Core{FE: 3, BE: 2, LS: 2} }},
		{"bad cache", func(a *Allocation) { a.ExtraLC[0].Cache = -1 }},
	}
	for _, c := range cases {
		a := good
		a.ExtraLC = append([]LCAssign(nil), good.ExtraLC...)
		c.mutate(&a)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RunMulti did not panic", c.name)
				}
			}()
			m.RunMulti(a, 0.1, []float64{1000, 1000})
		}()
	}
}

func TestExtraServiceSharesPowerAndCache(t *testing.T) {
	// Adding a second service must raise chip power and consume ways.
	xapian := mustApp(t, "xapian")
	silo := mustApp(t, "silo")
	m1 := New(Spec{Seed: 5, LC: xapian, Reconfigurable: true})
	a1 := Uniform(0, true, 8, config.Widest, config.FourWays)
	p1 := m1.Run(a1, 0.1, 0.4*xapian.MaxQPS)

	m2 := New(Spec{Seed: 5, LC: xapian, ExtraLCs: []*workload.Profile{silo}, Reconfigurable: true})
	a2 := Uniform(0, true, 8, config.Widest, config.FourWays)
	a2.ExtraLC = []LCAssign{{Cores: 8, Core: config.Widest, Cache: config.FourWays}}
	p2 := m2.RunMulti(a2, 0.1, []float64{0.4 * xapian.MaxQPS, 0.3 * silo.MaxQPS})
	if p2.PowerW <= p1.PowerW {
		t.Fatalf("second service should add power: %v vs %v", p2.PowerW, p1.PowerW)
	}
	if got := a2.TotalWays(true); got != 8 {
		t.Fatalf("two four-way services should consume 8 ways, got %v", got)
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
