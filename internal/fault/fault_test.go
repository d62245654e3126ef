package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"cuttlesys/internal/sim"
)

func TestNewScheduleRejectsBadEvents(t *testing.T) {
	if _, err := NewSchedule(1, Event{Kind: CoreFailStop, Start: 2, End: 2}); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, err := NewSchedule(1, Event{Kind: CoreFailStop, Start: 3, End: 1}); err == nil {
		t.Fatal("inverted window accepted")
	}
	if _, err := NewSchedule(1, Event{Kind: Kind("melt-down"), Start: 0, End: 1}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := NewSchedule(1,
		Event{Kind: FlashCrowd, Start: 0, End: 1},
		Event{Kind: BudgetDrop, Start: 0.5, End: 2}); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestEmptySchedule(t *testing.T) {
	var nilSched *Schedule
	empty := MustSchedule(7)
	for _, s := range []*Schedule{nilSched, empty} {
		if d := s.Disrupt(0.5); d != (sim.Disruption{}) {
			t.Fatalf("empty schedule disrupts: %+v", d)
		}
		if s.LoadFactor(0.5) != 1 || s.BudgetFactor(0.5) != 1 {
			t.Fatal("empty schedule perturbs environment")
		}
		if kinds := s.ActiveKinds(0.5); kinds != nil {
			t.Fatalf("empty schedule reports active kinds %v", kinds)
		}
		pr := sim.PhaseResult{BatchBIPS: []float64{1, 2}}
		out := s.ObservePhase(0.5, pr, false)
		if &out.BatchBIPS[0] != &pr.BatchBIPS[0] {
			t.Fatal("empty schedule cloned the phase result")
		}
	}
}

func TestEventWindows(t *testing.T) {
	s := MustSchedule(3,
		Event{Kind: CoreFailStop, Start: 1, End: 2, Cores: 2, BatchCores: 3},
		Event{Kind: CoreFailSlow, Start: 1.5, End: 3, Factor: 0.5, BatchFactor: 0.8},
		Event{Kind: FlashCrowd, Start: 2, End: 4, Factor: 2.5},
		Event{Kind: BudgetDrop, Start: 0, End: 1, Factor: 0.6},
	)
	// Before anything: only the budget drop is active.
	if d := s.Disrupt(0.5); d != (sim.Disruption{}) {
		t.Fatalf("t=0.5 hardware disruption: %+v", d)
	}
	if f := s.BudgetFactor(0.5); f != 0.6 {
		t.Fatalf("t=0.5 budget factor %v", f)
	}
	// Fail-stop window.
	d := s.Disrupt(1.2)
	if d.FailedLC != 2 || d.FailedBatch != 3 {
		t.Fatalf("t=1.2 disruption: %+v", d)
	}
	// Overlap fail-stop + fail-slow.
	d = s.Disrupt(1.7)
	if d.FailedLC != 2 || d.SlowLC != 0.5 || d.SlowBatch != 0.8 {
		t.Fatalf("t=1.7 disruption: %+v", d)
	}
	// End is exclusive.
	if d := s.Disrupt(2); d.FailedLC != 0 {
		t.Fatalf("t=2 fail-stop still active: %+v", d)
	}
	if f := s.LoadFactor(2); f != 2.5 {
		t.Fatalf("t=2 load factor %v", f)
	}
	if f := s.LoadFactor(4); f != 1 {
		t.Fatalf("t=4 load factor %v", f)
	}
	if got := s.ActiveKinds(1.7); !reflect.DeepEqual(got, []string{"core-failstop", "core-failslow"}) {
		t.Fatalf("t=1.7 active kinds %v", got)
	}
}

func TestSlowFactorsCompose(t *testing.T) {
	s := MustSchedule(3,
		Event{Kind: CoreFailSlow, Start: 0, End: 1, Factor: 0.5},
		Event{Kind: CoreFailSlow, Start: 0, End: 1, Factor: 0.5},
	)
	d := s.Disrupt(0.5)
	if math.Abs(d.SlowLC-0.25) > 1e-12 || math.Abs(d.SlowBatch-0.25) > 1e-12 {
		t.Fatalf("overlapping slow factors: %+v", d)
	}
}

func TestDeterministicCorruption(t *testing.T) {
	mk := func(seed uint64) []float64 {
		s := MustSchedule(seed, Event{Kind: TelemetryGarbage, Start: 0, End: 10, Prob: 0.8})
		pr := sim.PhaseResult{
			BatchBIPS:   []float64{1, 2, 3, 4},
			BatchPowerW: []float64{5, 6, 7, 8},
			PowerW:      200,
			LC:          []sim.LCResult{{Sojourns: []float64{0.01, 0.02, 0.03}, CorePowerW: 9}},
		}
		out := s.ObservePhase(1, pr, false)
		vals := append([]float64{}, out.BatchBIPS...)
		vals = append(vals, out.BatchPowerW...)
		return append(vals, out.LC[0].CorePowerW, out.PowerW)
	}
	a, b := mk(11), mk(11)
	for i := range a {
		same := a[i] == b[i] || (math.IsNaN(a[i]) && math.IsNaN(b[i]))
		if !same {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := mk(12)
	diff := false
	for i := range a {
		if a[i] != c[i] && !(math.IsNaN(a[i]) && math.IsNaN(c[i])) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical corruption")
	}
}

func TestObservePhaseDoesNotMutateTruth(t *testing.T) {
	s := MustSchedule(5, Event{Kind: TelemetryGarbage, Start: 0, End: 10, Prob: 1})
	pr := sim.PhaseResult{
		BatchBIPS:   []float64{1, 2, 3},
		BatchPowerW: []float64{4, 5, 6},
		PowerW:      100,
		LC: []sim.LCResult{
			{Sojourns: []float64{0.01, 0.02}, CorePowerW: 7},
			{Sojourns: []float64{0.03}},
		},
	}
	want := sim.PhaseResult{
		BatchBIPS:   []float64{1, 2, 3},
		BatchPowerW: []float64{4, 5, 6},
		PowerW:      100,
		LC: []sim.LCResult{
			{Sojourns: []float64{0.01, 0.02}, CorePowerW: 7},
			{Sojourns: []float64{0.03}},
		},
	}
	out := s.ObservePhase(1, pr, false)
	if !reflect.DeepEqual(pr, want) {
		t.Fatalf("ObservePhase mutated the truth: %+v", pr)
	}
	changed := out.LC[0].CorePowerW != 7 || out.PowerW != 100
	for i, v := range out.BatchBIPS {
		if v != pr.BatchBIPS[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("Prob=1 corruption changed nothing")
	}
}

func TestProfileVsSteadySelection(t *testing.T) {
	s := MustSchedule(5, Event{Kind: ProfileCorrupt, Start: 0, End: 10, Prob: 1})
	pr := sim.PhaseResult{BatchBIPS: []float64{1, 2, 3, 4, 5, 6}}
	// A profile-corrupt event must leave steady-state telemetry alone...
	steady := s.ObservePhase(1, pr, false)
	if &steady.BatchBIPS[0] != &pr.BatchBIPS[0] {
		t.Fatal("ProfileCorrupt touched steady telemetry")
	}
	// ...and corrupt profiling windows. ProfileCorrupt never emits NaN
	// or negative readings — that is TelemetryGarbage's job.
	prof := s.ObservePhase(1, pr, true)
	changed := false
	for i, v := range prof.BatchBIPS {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("ProfileCorrupt emitted garbage reading %v", v)
		}
		if v != pr.BatchBIPS[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("Prob=1 profile corruption changed nothing")
	}
}

// TestKindByName pins the data-driven kind registry: every declared
// kind resolves to itself and unknown names error with the input.
func TestKindByName(t *testing.T) {
	for _, k := range []Kind{CoreFailStop, CoreFailSlow, ProfileCorrupt, TelemetryGarbage, FlashCrowd, BudgetDrop} {
		got, err := KindByName(string(k))
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if got != k {
			t.Errorf("KindByName(%q) = %q", k, got)
		}
	}
	if _, err := KindByName("disk-full"); err == nil || !strings.Contains(err.Error(), "disk-full") {
		t.Errorf("unknown kind error %v does not name the input", err)
	}
}
