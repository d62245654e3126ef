package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"cuttlesys/internal/obs"
)

// checkedIn reads one report's reference file from the repository root.
func checkedIn(t *testing.T, file string) []byte {
	t.Helper()
	buf, err := os.ReadFile("../../" + file)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// decodeReport unmarshals a checked-in report. TestReferenceReportsUnchanged
// holds those bytes equal to a fresh regeneration, so the semantic
// checks below read them instead of re-running the sweeps.
func decodeReport(t *testing.T, file string, v any) {
	t.Helper()
	if err := json.Unmarshal(checkedIn(t, file), v); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
}

// TestReferenceReportsUnchanged is the byte gate of every seeded
// report: each registry row, built with its reference defaults, must
// reproduce its checked-in file exactly, at GOMAXPROCS 1 and at 8. Any
// drift — reordered map iteration, a changed guard, a reseeded stream,
// a float rounding change, a dependence on the worker count — fails
// here before it can silently invalidate the published numbers. The
// resilience row hands its runs on to TestResilienceRecordsPinned.
func TestReferenceReportsUnchanged(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			for _, r := range reports {
				t.Run(r.name, func(t *testing.T) {
					if why := gateSkip(r.name); why != "" {
						t.Skip(why)
					}
					t.Parallel()
					build := r.build
					if r.name == "resilience" {
						build = func(p params) (any, error) { return buildResilience(procs, p) }
					}
					rep, err := build(r.defaults)
					if err != nil {
						t.Fatal(err)
					}
					got, err := obs.EncodeReport(rep)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, checkedIn(t, r.file)) {
						t.Errorf("regenerated report differs from %s; run `make reports` and review the diff", r.file)
					}
				})
			}
		})
	}
}

// gateSkip says why a registry row's byte gate does not run in this
// test configuration, or returns "". The obs run is small enough for
// every configuration, and the resilience sweep (about 40 s under
// -race on a 2-core host, both GOMAXPROCS runs) stays in -race runs.
// The four fleet sweeps would add about two minutes to `go test -race`
// on that host; their parallel paths are race-tested in internal/fleet,
// internal/ctrlplane and internal/modelplane.
func gateSkip(name string) string {
	switch {
	case name == "obs":
		return ""
	case testing.Short():
		return "full report sweep in -short mode"
	case raceEnabled && name != "resilience":
		return "full fleet sweep under -race; its parallel paths are race-tested in the internal packages"
	}
	return ""
}

// TestRowsBindTheirFlags checks every registry and paper row names
// only flags params.bind knows (bind panics on an unknown name), and
// that each report takes -o.
func TestRowsBindTheirFlags(t *testing.T) {
	for _, r := range reports {
		p := r.defaults
		p.bind(flag.NewFlagSet(r.name, flag.ContinueOnError), append([]string{"o"}, r.flags...)...)
	}
	for _, r := range paperRows {
		p := r.defaults
		p.bind(flag.NewFlagSet(r.name, flag.ContinueOnError), r.flags...)
	}
}

// TestTrainSweepRefusesSeed: the training-set sweep draws no
// randomness, so its row reads no -seed and refuses one as a usage
// error, as every row refuses a flag it does not read.
func TestTrainSweepRefusesSeed(t *testing.T) {
	err := run([]string{"paper", "trainsweep", "-seed", "7"}, io.Discard)
	if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "-seed") {
		t.Fatalf("paper trainsweep -seed 7: got %v, want a usage error naming -seed", err)
	}
}

// TestDeclarationOrder: every report enumerates its scenarios,
// policies, drills and cells in declaration order — the sweeps iterate
// slices, never maps, so the layout of the JSON is part of the
// byte-stability contract.
func TestDeclarationOrder(t *testing.T) {
	var res ResilienceReport
	decodeReport(t, "BENCH_resilience.json", &res)
	if len(res.Results) != len(resilienceBatteries) {
		t.Fatalf("resilience: %d scenarios, want %d", len(res.Results), len(resilienceBatteries))
	}
	for i, battery := range resilienceBatteries {
		if res.Results[i].Scenario != battery {
			t.Errorf("resilience result %d is %q, want %q", i, res.Results[i].Scenario, battery)
		}
		if len(res.Results[i].Policies) != len(resiliencePolicies) {
			t.Fatalf("resilience %s: %d policies, want %d", battery, len(res.Results[i].Policies), len(resiliencePolicies))
		}
		for j, policy := range resiliencePolicies {
			if got := res.Results[i].Policies[j].Policy; got != policy {
				t.Errorf("resilience %s policy %d is %q, want %q", battery, j, got, policy)
			}
		}
	}

	var fl FleetReport
	decodeReport(t, "BENCH_fleet.json", &fl)
	if len(fl.Results) != len(fleetScenarios()) {
		t.Fatalf("fleet: %d scenarios, want %d", len(fl.Results), len(fleetScenarios()))
	}
	for i, name := range fleetScenarios() {
		if fl.Results[i].Scenario != name {
			t.Errorf("fleet result %d is %q, want %q", i, fl.Results[i].Scenario, name)
		}
		for j, pol := range fleetPolicies() {
			if got := fl.Results[i].Policies[j].Policy; got != pol {
				t.Errorf("fleet %s policy %d is %q, want %q", name, j, got, pol)
			}
		}
	}

	var ops OpsReport
	decodeReport(t, "BENCH_ops.json", &ops)
	if len(ops.Drills) != len(drillNames()) {
		t.Fatalf("ops: %d drills, want %d", len(ops.Drills), len(drillNames()))
	}
	for i, name := range drillNames() {
		if ops.Drills[i].Drill != name {
			t.Errorf("ops drill %d is %q, want %q", i, ops.Drills[i].Drill, name)
		}
	}

	var suite ScenarioSuite
	decodeReport(t, "BENCH_scenario.json", &suite)
	if len(suite.Scenarios) != len(suiteScenarios()) {
		t.Fatalf("scenario: %d scenarios, want %d", len(suite.Scenarios), len(suiteScenarios()))
	}
	for i, name := range suiteScenarios() {
		if suite.Scenarios[i].Scenario != name {
			t.Errorf("scenario %d is %q, want %q", i, suite.Scenarios[i].Scenario, name)
		}
	}

	var warm WarmstartReport
	decodeReport(t, "BENCH_warmstart.json", &warm)
	if len(warm.Cells) != len(warmCells()) {
		t.Fatalf("warmstart: %d cells, want %d", len(warm.Cells), len(warmCells()))
	}
	for i, c := range warmCells() {
		if got := warm.Cells[i]; got.Machines != c.machines || got.SyncPeriod != c.sync {
			t.Errorf("warmstart cell %d is machines=%d sync=%d, want %d/%d", i, got.Machines, got.SyncPeriod, c.machines, c.sync)
		}
	}
}

// TestFaultFreeHardenedEqualsUnhardened: the fault-free scenario must
// not distinguish the hardened runtime from the trusting control — with
// no faults the guards never fire.
func TestFaultFreeHardenedEqualsUnhardened(t *testing.T) {
	var rep ResilienceReport
	decodeReport(t, "BENCH_resilience.json", &rep)
	ff := rep.Results[0]
	if ff.Scenario != "fault-free" {
		t.Fatalf("first scenario %q, want fault-free", ff.Scenario)
	}
	hard, soft := ff.Policies[0], ff.Policies[1]
	soft.Policy = hard.Policy
	if hard != soft {
		t.Fatalf("fault-free hardened and unhardened differ:\n%+v\n%+v", hard, soft)
	}
}

// TestFleetScaling: the scaling section covers 1, 4 and 16 machines,
// and the modeled controller speedup grows with the fleet.
func TestFleetScaling(t *testing.T) {
	var rep FleetReport
	decodeReport(t, "BENCH_fleet.json", &rep)
	if len(rep.Scaling) != 3 {
		t.Fatalf("%d scaling points", len(rep.Scaling))
	}
	for i, want := range []int{1, 4, 16} {
		p := rep.Scaling[i]
		if p.Machines != want {
			t.Fatalf("scaling point %d is %d machines, want %d", i, p.Machines, want)
		}
		if p.ModeledControllerSpeedup < float64(want)*0.5 || p.ModeledControllerSpeedup > float64(want)+1e-9 {
			t.Fatalf("%d machines: modeled speedup %v", want, p.ModeledControllerSpeedup)
		}
	}
	if rep.Scaling[2].ModeledControllerSpeedup <= rep.Scaling[0].ModeledControllerSpeedup {
		t.Fatal("parallel stepping shows no controller speedup at 16 machines")
	}
}

// TestFailoverDrillOutcome checks the acceptance arc on the reference
// parameters: the fail-stopped machine is quarantined within the
// debounce window, drained and evicted, its replacement joins the same
// slice and works through probation to healthy, and no load is shed —
// traffic redistributes over the survivors.
func TestFailoverDrillOutcome(t *testing.T) {
	var rep OpsReport
	decodeReport(t, "BENCH_ops.json", &rep)
	fo := rep.Drills[0]
	if fo.Drill != "failover" {
		t.Fatalf("first drill is %q", fo.Drill)
	}
	if fo.ShedQPS != 0 {
		t.Errorf("failover shed %v QPS; survivors should absorb the whole offered load", fo.ShedQPS)
	}
	if fo.MinServing < 3 {
		t.Errorf("serving floor %d, want >= 3", fo.MinServing)
	}
	if fo.Evictions != 1 {
		t.Fatalf("%d evictions, want 1", fo.Evictions)
	}
	var quarantined, evicted, replaced, healthyAgain bool
	for _, tr := range fo.Transitions {
		switch {
		case tr.Machine == 1 && tr.To == "quarantined":
			quarantined = true
			if tr.Slice > 10 {
				t.Errorf("quarantine at slice %d, want within the debounce window (<= 10) of the t=0.5 fault", tr.Slice)
			}
		case tr.Machine == 1 && tr.To == "evicted":
			evicted = true
		case tr.Machine == 4 && tr.To == "healthy":
			healthyAgain = true
		}
	}
	for _, ev := range fo.Membership {
		if ev.Event == "join" && ev.Reason == "replace:1" {
			replaced = true
			if ev.Machine != 4 {
				t.Errorf("replacement is machine %d, want 4", ev.Machine)
			}
		}
	}
	if !quarantined || !evicted || !replaced || !healthyAgain {
		t.Fatalf("incomplete failover arc: quarantined=%v evicted=%v replaced=%v replacementHealthy=%v",
			quarantined, evicted, replaced, healthyAgain)
	}
	if got := fo.Final[1]; got != "evicted" {
		t.Errorf("machine 1 final state %q, want evicted", got)
	}
}

// TestWarmBeatsCold is the model-sharing plane's reason to exist: the
// warm successor must actually import fleet factors, some warm cell
// must spend strictly fewer sampling-phase quanta than the cold
// successor at the same fleet size, and every cell must replace the
// victim.
func TestWarmBeatsCold(t *testing.T) {
	var rep WarmstartReport
	decodeReport(t, "BENCH_warmstart.json", &rep)
	cold := make(map[int]int) // machines -> cold successor sampling
	for _, c := range rep.Cells {
		if c.Mode == "cold" {
			if c.WarmStarted {
				t.Errorf("cold cell (machines=%d) reports a warm-started successor", c.Machines)
			}
			cold[c.Machines] = c.SuccessorSamplingQuanta
		}
	}
	warmWins := 0
	for _, c := range rep.Cells {
		if c.Mode != "warm" {
			continue
		}
		base, ok := cold[c.Machines]
		if !ok {
			t.Fatalf("warm cell machines=%d has no cold baseline", c.Machines)
		}
		if !c.WarmStarted {
			t.Errorf("warm cell machines=%d sync=%d: successor never warm-started", c.Machines, c.SyncPeriod)
		}
		if c.ShareWarmStarts < 1 || c.SharePublishes == 0 || c.ShareAggregates == 0 {
			t.Errorf("warm cell machines=%d sync=%d: plane totals publishes=%d aggregates=%d warmStarts=%d",
				c.Machines, c.SyncPeriod, c.SharePublishes, c.ShareAggregates, c.ShareWarmStarts)
		}
		if c.SuccessorSamplingQuanta < base {
			warmWins++
		}
	}
	if warmWins == 0 {
		t.Error("no warm cell beat its cold baseline's successor sampling quanta")
	}
	for _, c := range rep.Cells {
		if c.Evictions < 1 || c.Joins <= c.Machines {
			t.Errorf("cell machines=%d sync=%d never replaced the victim (joins=%d evictions=%d)",
				c.Machines, c.SyncPeriod, c.Joins, c.Evictions)
		}
	}
}

// TestScenarioManagedSection: correlated-brownout is the scenario
// suite's managed run, so its control section must be present and the
// others absent.
func TestScenarioManagedSection(t *testing.T) {
	var rep ScenarioSuite
	decodeReport(t, "BENCH_scenario.json", &rep)
	for _, sr := range rep.Scenarios {
		if managed := sr.Scenario == "correlated-brownout"; sr.Managed != managed || (sr.Control != nil) != managed {
			t.Errorf("%s: managed=%v control=%v", sr.Scenario, sr.Managed, sr.Control != nil)
		}
	}
}

// TestRejectsBadGeometry runs every subcommand that takes a geometry
// flag with each out-of-range value: it must fail before running
// anything, with an error naming the flag — counts below one,
// fractions outside (0, 1] (each -loads element too) and a -sim that
// is not finite and positive never fall back to a default or reach the
// engine. One subtest per subcommand, one nested subtest per bad value.
func TestRejectsBadGeometry(t *testing.T) {
	bad := map[string][]string{
		"machines": {"0", "-2"},
		"slices":   {"0", "-1"},
		"mixes":    {"0"},
		"reps":     {"0", "-3"},
		"load":     {"0", "-1", "1.5", "NaN"},
		"cap":      {"0", "-0.1", "1.01"},
		"loads":    {"NaN", "-1", "0", "0.2,1.5"},
		"sim":      {"-1", "NaN", "0", "Inf"},
	}
	// The drills' own floors sit above the flag floor.
	floors := map[string][2]string{
		"report ops":       {"machines", "1"},
		"report warmstart": {"slices", "4"},
	}
	type cmdline struct {
		args []string
		bad  [][2]string // flag, value
	}
	var cmds []cmdline
	nbad := 0
	add := func(args, flags []string) {
		c := cmdline{args: args}
		for _, f := range flags {
			for _, v := range bad[f] {
				c.bad = append(c.bad, [2]string{f, v})
			}
		}
		nbad += len(c.bad)
		if fl, ok := floors[strings.Join(args, " ")]; ok {
			c.bad = append(c.bad, fl)
		}
		cmds = append(cmds, c)
	}
	add([]string{"sim"}, simFlags)
	add([]string{"run", "steady"}, geometryFlags)
	add([]string{"describe", "steady"}, geometryFlags)
	for _, r := range reports {
		add([]string{"report", r.name}, r.flags)
	}
	for _, r := range paperRows {
		add([]string{"paper", r.name}, r.flags)
	}
	if nbad < 100 {
		t.Errorf("only %d bad command lines; the subcommand tables lost their geometry flags", nbad)
	}
	for _, c := range cmds {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			for _, b := range c.bad {
				flag, value := b[0], b[1]
				t.Run("-"+flag+" "+value, func(t *testing.T) {
					args := append(append([]string(nil), c.args...), "-"+flag, value)
					err := run(args, io.Discard)
					if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), "-"+flag+" ") {
						t.Fatalf("got %v, want a geometry error naming -%s", err, flag)
					}
				})
			}
		})
	}
}
