package scenario

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/obs"
	"cuttlesys/specs"
)

// batteries are the resilience report's fault batteries; battery b is
// the library spec resilience-b.
var batteries = []string{
	"fault-free", "core-failstop", "core-failslow", "profile-corrupt",
	"garbage-telemetry", "flash-crowd", "budget-drop",
}

// battery compiles battery b's spec under scheduler at slices
// timeslices and the run seed 1. set, when given, edits the parsed
// spec first.
func battery(t *testing.T, b, scheduler string, slices int, set ...func(*Spec)) *Compiled {
	t.Helper()
	src, err := specs.Source("resilience-" + b)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sp.Policy.Scheduler = scheduler
	for _, f := range set {
		f(sp)
	}
	c, err := Compile(sp, Options{Slices: slices, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOneMachineFleetIsTheHarnessRun holds a one-machine spec's fleet
// run to its RunMachine run, the single-machine harness run of the
// same machine, bit for bit: every registry scheduler under each
// resilience battery. Every SliceRecord field is compared by its bits
// except LoadFrac, a recorded label: the harness records load·factor,
// the fleet share ÷ capacity, and no scheduler reads it.
//
// The fleet runs once, under the qos-aware router and the headroom
// arbiter set on the spec's policy clause — the stateful router and
// the demand-driven arbiter — stepped as Compiled.Run steps it, one
// slice at a time so the test keeps the telemetry each slice was
// routed on. The fleet report's other two pairs are held to that run
// by replay: fed the same telemetry, each must hand the machine
// exactly the offered QPS and the budget every slice, so its fleet run
// is this run (fleet.TestOneMemberGetsTheWhole holds the same for any
// telemetry).
func TestOneMachineFleetIsTheHarnessRun(t *testing.T) {
	if testing.Short() {
		t.Skip("140 machine runs in -short mode")
	}
	schedulers := Schedulers
	if raceEnabled {
		schedulers = schedulers[:1]
	}
	for _, def := range schedulers {
		for _, b := range batteries {
			want, _, err := battery(t, b, def.Name, 20).RunMachine(nil)
			if err != nil {
				t.Fatal(err)
			}
			c := battery(t, b, def.Name, 20, func(sp *Spec) {
				sp.Policy.Router, sp.Policy.Arbiter = "qos-aware", "headroom"
			})
			f, err := c.BuildFleet(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var tele [][]fleet.Telemetry
			for range c.Slices {
				tele = append(tele, slices.Clone(f.Telemetry()))
				if _, err := f.Run(1, c.LoadPat, c.BudgetPat); err != nil {
					t.Fatal(err)
				}
			}
			res := f.Result()
			f.Close()
			t.Run(fmt.Sprintf("%s/%s/qos-aware+headroom", def.Name, b), func(t *testing.T) {
				sameRecords(t, res.Nodes[0].Slices, want.Slices)
			})
			for _, pair := range [][2]string{{"uniform", "proportional"}, {"least-loaded", "headroom"}} {
				t.Run(fmt.Sprintf("%s/%s/%s+%s", def.Name, b, pair[0], pair[1]), func(t *testing.T) {
					router, err := fleet.RouterByName(pair[0])
					if err != nil {
						t.Fatal(err)
					}
					arbiter, err := fleet.ArbiterByName(pair[1])
					if err != nil {
						t.Fatal(err)
					}
					for s, rec := range res.Slices {
						qps, budget := router.Route(rec.OfferedQPS, tele[s]), arbiter.Split(rec.BudgetW, tele[s])
						if len(qps) != 1 || len(budget) != 1 ||
							math.Float64bits(qps[0]) != math.Float64bits(rec.OfferedQPS) ||
							math.Float64bits(budget[0]) != math.Float64bits(rec.BudgetW) {
							t.Fatalf("slice %d: %v QPS and %v W of %v and %v", s, qps, budget, rec.OfferedQPS, rec.BudgetW)
						}
					}
				})
			}
		}
	}
}

// TestRunMachineRefusesFleets: a spec that needs a fleet, by its
// machine count, a control clause or a share clause, is refused with
// the reason, never run as one machine.
func TestRunMachineRefusesFleets(t *testing.T) {
	const head = "scenario fleet\nservice xapian\nload 0.8\ncap 0.7\n"
	cases := []struct{ name, src, wantSub string }{
		{"two machines", head + "machines 2\n", "runs one machine"},
		{"managed", head + "machines 1\ncontrol {\nreplace-evicted\n}\n", "no control or share clause"},
		{"share", head + "machines 1\nshare syncperiod=2\n", "no control or share clause"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mustCompile(t, tc.src, Options{Slices: 2, Seed: 1})
			res, sched, err := c.RunMachine(nil)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error = %v, want mention of %q", err, tc.wantSub)
			}
			if res != nil || sched != nil {
				t.Errorf("refused run returned %v, %v", res, sched)
			}
		})
	}
}

// TestRunMachineTraced: Options.Collector reaches RunMachine's run.
// The traced run records one slice span per slice and returns the
// untraced run's records bit for bit; tracing observes, it never
// steers.
func TestRunMachineTraced(t *testing.T) {
	const n = 6
	run := func(c obs.Collector) *harness.Result {
		src, err := specs.Source("resilience-core-failstop")
		if err != nil {
			t.Fatal(err)
		}
		sp, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := Compile(sp, Options{Slices: n, Seed: 1, Collector: c})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := comp.RunMachine(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(nil)
	rec := obs.NewRecorder()
	got := run(rec)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traced run diverged from the untraced one:\ntraced:   %+v\nuntraced: %+v", got, want)
	}
	var spans []int
	for _, ev := range rec.Events() {
		if ev.Kind == obs.SpanEvent && ev.Name == obs.SpanSlice {
			spans = append(spans, ev.Slice)
		}
	}
	slices.Sort(spans)
	if !slices.Equal(spans, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("slice spans for slices %v, want one for each of 0..%d", spans, n-1)
	}
}

// sameRecords compares two runs' slice records field by field, floats
// by their bits, leaving out LoadFrac.
func sameRecords(t *testing.T, got, want []harness.SliceRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d slices, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := reflect.ValueOf(got[i]), reflect.ValueOf(want[i])
		for f := 0; f < g.NumField(); f++ {
			name := g.Type().Field(f).Name
			if name != "LoadFrac" && !sameBits(g.Field(f), w.Field(f)) {
				t.Fatalf("slice %d: %s = %v, want %v", i, name, g.Field(f), w.Field(f))
			}
		}
	}
}

// sameBits reports whether a and b hold the same value, floats
// compared by math.Float64bits.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// TestSchedulersListed requires every registry name to be distinct and
// to run a slice, and the unknown-scheduler error to list them all:
// the sim command's help and that error read the registry, so a
// scheduler missing from it is one no user is told of.
func TestSchedulersListed(t *testing.T) {
	seen := map[string]bool{}
	var names []string
	for _, def := range Schedulers {
		if seen[def.Name] {
			t.Errorf("scheduler %q listed twice", def.Name)
		}
		seen[def.Name] = true
		names = append(names, def.Name)
		if _, err := battery(t, "fault-free", def.Name, 1).Run(); err != nil {
			t.Errorf("%s: %v", def.Name, err)
		}
	}
	if Schedulers[0].Name != "cuttlesys" {
		t.Errorf("default scheduler %q, want cuttlesys", Schedulers[0].Name)
	}
	_, err := SchedulerByName("xx")
	if err == nil || !strings.Contains(err.Error(), strings.Join(names, " ")) {
		t.Errorf("unknown-scheduler error %v does not list the schedulers", err)
	}
}
