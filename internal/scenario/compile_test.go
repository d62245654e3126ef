package scenario

import (
	"math"
	"strings"
	"testing"
	"testing/fstest"

	"cuttlesys/internal/fault"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/obs"
)

// fleetGrid reproduces the fleet driver's time grid: the slice clock
// accumulates SliceDur additions, so equivalence must hold at the
// accumulated values, not at k*SliceDur.
func fleetGrid(slices int) []float64 {
	ts := make([]float64, slices)
	now := 0.0
	for k := range ts {
		ts[k] = now
		now += harness.SliceDur
	}
	return ts
}

func mustCompile(t *testing.T, src string, opt Options) *Compiled {
	t.Helper()
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	c, err := Compile(s, opt)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

// stdOpts mirrors the fleet driver's defaults.
var stdOpts = Options{Machines: 4, Slices: 12, Service: "xapian", Load: 0.7, Cap: 0.65, Seed: 1}

// samePattern requires bitwise equality over the fleet grid — the
// property the ported BENCH reports depend on.
func samePattern(t *testing.T, name string, got, want func(float64) float64, slices int) {
	t.Helper()
	for _, ts := range fleetGrid(slices) {
		g, w := got(ts), want(ts)
		if g != w {
			t.Fatalf("%s: pattern(%v) = %v, want %v (bitwise)", name, ts, g, w)
		}
	}
}

// The spec ports of the legacy hard-coded scenarios must compile to
// bit-identical patterns.
func TestCompileMatchesLegacyPatterns(t *testing.T) {
	load, cap := 0.7, 0.65
	span := float64(stdOpts.Slices) * harness.SliceDur

	t.Run("steady", func(t *testing.T) {
		c := mustCompile(t, "scenario steady\n", stdOpts)
		samePattern(t, "load", c.LoadPat, harness.ConstantLoad(load), stdOpts.Slices)
		samePattern(t, "budget", c.BudgetPat, harness.ConstantBudget(cap), stdOpts.Slices)
	})
	t.Run("diurnal", func(t *testing.T) {
		c := mustCompile(t, `scenario diurnal
client primary {
  arrival diurnal lo=0.5 hi=1.25 max=0.95 period=1
}
`, stdOpts)
		legacy := harness.DiurnalLoad(load*0.5, math.Min(load*1.25, 0.95), span)
		samePattern(t, "load", c.LoadPat, legacy, stdOpts.Slices)
	})
	t.Run("budget-squeeze", func(t *testing.T) {
		c := mustCompile(t, "scenario budget-squeeze\nbudget step lo=1 hi=0.65 from=1/3 to=2/3\n", stdOpts)
		legacy := harness.StepBudget(cap, cap*0.65, span/3, 2*span/3)
		samePattern(t, "budget", c.BudgetPat, legacy, stdOpts.Slices)
	})
	t.Run("surge-absolute", func(t *testing.T) {
		opts := stdOpts
		opts.Slices = 30
		span := float64(opts.Slices) * harness.SliceDur
		c := mustCompile(t, `scenario surge
client primary {
  arrival step lo=0.2 hi=0.95 from=1/4 to=3/4 absolute
}
`, opts)
		legacy := harness.StepLoad(0.2, 0.95, span/4, 3*span/4)
		samePattern(t, "load", c.LoadPat, legacy, opts.Slices)
	})
	t.Run("failover-absolute", func(t *testing.T) {
		c := mustCompile(t, `scenario failover
budget constant rate=0.8 absolute
client primary {
  arrival constant rate=0.4 absolute
}
`, stdOpts)
		samePattern(t, "load", c.LoadPat, harness.ConstantLoad(0.4), stdOpts.Slices)
		samePattern(t, "budget", c.BudgetPat, harness.ConstantBudget(0.8), stdOpts.Slices)
	})
}

// Multiple clients sum, and fractions scale against the run load.
func TestCompileMultiClientSum(t *testing.T) {
	c := mustCompile(t, `scenario split
client a {
  fraction 0.5
}
client b {
  fraction 1/4
}
`, stdOpts)
	if len(c.Clients) != 2 {
		t.Fatalf("got %d clients", len(c.Clients))
	}
	for _, ts := range fleetGrid(stdOpts.Slices) {
		want := c.Clients[0].Pattern(ts) + c.Clients[1].Pattern(ts)
		if got := c.LoadPat(ts); got != want {
			t.Fatalf("sum at %v: %v != %v", ts, got, want)
		}
	}
	if got := c.Clients[0].MeanFrac; !(math.Abs(got-0.7*0.5) <= 1e-12) {
		t.Errorf("client a mean fraction = %v, want 0.35", got)
	}
}

// Stochastic modulation is reproducible for a fixed (seed, spec) and
// reseeds when either changes.
func TestCompileStochasticDeterminism(t *testing.T) {
	src := `scenario noisy
client primary {
  arrival bursty cv=2
}
`
	a := mustCompile(t, src, stdOpts)
	b := mustCompile(t, src, stdOpts)
	grid := fleetGrid(stdOpts.Slices)
	for _, ts := range grid {
		if a.LoadPat(ts) != b.LoadPat(ts) {
			t.Fatalf("same seed+spec diverged at %v", ts)
		}
	}
	optsOther := stdOpts
	optsOther.Seed = 2
	d := mustCompile(t, src, optsOther)
	same := true
	for _, ts := range grid {
		if a.LoadPat(ts) != d.LoadPat(ts) {
			same = false
			break
		}
	}
	if same {
		t.Errorf("distinct seeds produced identical modulation")
	}
	// An edit to the spec (a new comment-free directive) reseeds too.
	e := mustCompile(t, "describe edited\n"+src, stdOpts)
	same = true
	for _, ts := range grid {
		if a.LoadPat(ts) != e.LoadPat(ts) {
			same = false
			break
		}
	}
	if same {
		t.Errorf("edited spec kept the original draws")
	}
}

func TestCompileTraceReplay(t *testing.T) {
	fsys := fstest.MapFS{
		"traces/day.csv": &fstest.MapFile{Data: []byte("0,web,100\n0.6,web,300\n")},
	}
	opts := stdOpts
	opts.FS = fsys
	opts.Slices = 12
	c := mustCompile(t, `scenario replay
client primary {
  arrival trace file=traces/day.csv client=web
}
`, opts)
	// Quantum 0 covers [0, 0.1): rate 100, normalised by the peak 300,
	// scaled by the run load.
	want0 := 0.7 * (100.0 / 300.0)
	if got := c.LoadPat(0); !(math.Abs(got-want0) <= 1e-12) {
		t.Errorf("replay quantum 0 = %v, want %v", got, want0)
	}
	// Far quanta hold the final rate: the full scaled load.
	if got := c.LoadPat(1.1); !(math.Abs(got-0.7) <= 1e-12) {
		t.Errorf("replay tail = %v, want 0.7", got)
	}
	// An explicit norm overrides the peak.
	c2 := mustCompile(t, `scenario replay
client primary {
  arrival trace file=traces/day.csv client=web norm=100
}
`, opts)
	if got := c2.LoadPat(1.1); !(math.Abs(got-0.7*3) <= 1e-12) {
		t.Errorf("explicit norm tail = %v, want 2.1", got)
	}
	// No filesystem → a clear error.
	s, err := Parse([]byte("scenario replay\nclient primary {\narrival trace file=traces/day.csv client=web\n}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(s, stdOpts); err == nil || !strings.Contains(err.Error(), "filesystem") {
		t.Errorf("missing FS error = %v", err)
	}
}

func TestCompileGeometryErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Options)
		wantSub string
	}{
		{"no machines", func(o *Options) { o.Machines = 0 }, "machine count"},
		{"no slices", func(o *Options) { o.Slices = 0 }, "slice count"},
		{"no service", func(o *Options) { o.Service = "" }, "service"},
		{"load too high", func(o *Options) { o.Load = 1.5 }, "load fraction"},
		{"cap negative", func(o *Options) { o.Cap = -0.1 }, "cap fraction"},
	}
	s, err := Parse([]byte("scenario bare\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := stdOpts
			tc.mutate(&opt)
			_, err := Compile(s, opt)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error = %v, want mention of %q", err, tc.wantSub)
			}
		})
	}
}

// A spec built in Go, as the warmstart report mutates its drill, is
// held to the grammar's ranges: Compile refuses what Parse refuses. It
// also resolves the policy clause through the fleet registry, so a
// name only run used to refuse fails validate and describe too.
func TestCompileChecksGoBuiltSpec(t *testing.T) {
	build := func() *Spec {
		return &Spec{
			Name:    "go-built",
			Mix:     MixSpec{Jobs: 4, Train: 16, TrainSeed: 1},
			Policy:  PolicySpec{Router: "uniform", Arbiter: "proportional"},
			Budget:  BudgetSpec{Kind: ProcConstant, Env: Envelope{Rate: num(1)}},
			Clients: []ClientSpec{{Name: "a", Fraction: num(1), SLO: SLOStandard, Arrival: ArrivalSpec{Process: ProcConstant, Env: Envelope{Rate: num(1)}}}},
			Faults:  []FaultSpec{{Events: []fault.Event{{Kind: fault.CoreFailStop, Start: 0.1, End: 0.2, Cores: 3}}}},
			Control: &ControlSpec{HasHealth: true, Health: HealthSpec{SuspectAfter: 2}},
		}
	}
	if _, err := Compile(build(), stdOpts); err != nil {
		t.Fatalf("valid Go-built spec: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"negative cores", func(s *Spec) { s.Faults[0].Events[0].Cores = -3 }, "cores=-3"},
		{"probation weight above one", func(s *Spec) { s.Control.Health.ProbationWeight = num(3) }, "probationweight=3"},
		{"zero share decay", func(s *Spec) { s.Share = &ShareSpec{SyncPeriod: 2, FineTune: 40, Confidence: 2} }, "decay"},
		{"unknown router", func(s *Spec) { s.Policy.Router = "bogus" }, `unknown router "bogus"`},
		{"unknown arbiter", func(s *Spec) { s.Policy.Arbiter = "nope" }, `unknown arbiter "nope"`},
		{"equal arbiter", func(s *Spec) { s.Policy.Arbiter = "equal" }, `unknown arbiter "equal"`},
		{"unknown scheduler", func(s *Spec) { s.Policy.Scheduler = "bogus" }, `unknown scheduler "bogus"`},
		{"mix seed on four machines", func(s *Spec) { s.Mix.Seed = 3 }, "mix seed= pins one machine, the run has 4"},
		{"foreign training size", func(s *Spec) { s.Mix.Train = 8 }, "mix train=8 trainseed=1: the runtime trains offline on train=16 trainseed=1"},
		{"foreign training seed", func(s *Spec) { s.Mix.TrainSeed = 2 }, "mix train=16 trainseed=2"},
		{"no training split", func(s *Spec) { s.Mix.Train = 0 }, "mix train=0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := build()
			tc.mutate(s)
			if _, err := Compile(s, stdOpts); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error = %v, want mention of %q", err, tc.wantSub)
			}
		})
	}
}

// Spec geometry fills what options leave unset, and options win when
// both are present.
func TestCompilePrecedence(t *testing.T) {
	src := "scenario geo\nservice xapian\nmachines 3\nslices 10\nload 0.5\ncap 0.6\n"
	c := mustCompile(t, src, Options{Seed: 1})
	if c.Machines != 3 || c.Slices != 10 || c.Load != 0.5 || c.Cap != 0.6 || c.Service != "xapian" {
		t.Errorf("spec geometry not honoured: %+v", c)
	}
	c = mustCompile(t, src, Options{Machines: 8, Load: 0.9, Seed: 1})
	if c.Machines != 8 || c.Load != 0.9 || c.Slices != 10 {
		t.Errorf("options did not override: %+v", c)
	}
}

func TestCompileInjectorPlacement(t *testing.T) {
	c := mustCompile(t, `scenario faulty
fault machine=1 {
  event core-failstop start=0.3 end=0.9 cores=8 batchcores=2
}

fault machine=1 salt=0x5eed {
  event budget-drop start=1.1 end=1.7 factor=0.7
}

fault machine=9 {
  event core-failslow start=0.2 end=0.4 cores=2 factor=0.5
}
`, stdOpts)
	for id := 0; id < stdOpts.Machines; id++ {
		inj, err := c.Injector(id, uint64(100+id))
		if err != nil {
			t.Fatalf("Injector(%d): %v", id, err)
		}
		// Machine 1 carries both salt-0 and salted clauses plus the
		// wrapped machine-9 clause (9 mod 4 = 1); others carry none.
		if id == 1 && inj == nil {
			t.Errorf("machine 1 has no injector")
		}
		if id != 1 && inj != nil {
			t.Errorf("machine %d unexpectedly has an injector", id)
		}
	}
}

// TestCollectorReachesBothDrivers: Options.Collector becomes the
// fleet's collector on the bare and the managed driver alike, so a
// traced run is a spec plus a recorder.
func TestCollectorReachesBothDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet runs in -short mode")
	}
	const bare = "scenario traced\nservice xapian\nmachines 1\nslices 1\nload 0.5\ncap 0.8\nmix jobs=4\n"
	for _, src := range []string{bare, bare + "control {\n}\n"} {
		rec := obs.NewRecorder()
		c := mustCompile(t, src, Options{Seed: 1, Collector: rec})
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		fleetSlices := 0
		for _, e := range rec.Events() {
			if e.Name == obs.SpanFleetSlice {
				fleetSlices++
			}
		}
		if fleetSlices != 1 {
			t.Errorf("managed=%v: recorder saw %d fleet.slice spans, want 1", c.Managed, fleetSlices)
		}
	}
}
