package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestSuiteDeterministic is the drill report's reproducibility
// contract: a fixed seed produces a byte-identical JSON report, run to
// run and across GOMAXPROCS settings — every control-plane decision
// (health transitions, drains, evictions, scale actions, provisioning
// seeds) runs serially between slices, machine stepping merges in
// index order, and SGD sweeps in serial order.
func TestSuiteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full drill suite in -short mode")
	}
	if raceEnabled {
		t.Skip("full drill suite exceeds the test timeout under -race; the parallel stepping is race-tested in internal/fleet and internal/ctrlplane")
	}
	marshal := func() []byte {
		rep, err := suite("xapian", 3, 14, 0.4, 0.8, 7)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := marshal(), marshal()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different drill reports")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := marshal()
	runtime.GOMAXPROCS(8)
	wide := marshal()
	if !bytes.Equal(a, serial) || !bytes.Equal(a, wide) {
		t.Fatal("GOMAXPROCS changed the drill report")
	}

	var rep Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	// Drills appear in declaration order — the suite iterates the drill
	// list, never a map, as part of the byte-stability contract.
	if len(rep.Drills) != len(opsDrills()) {
		t.Fatalf("%d drills in report, want %d", len(rep.Drills), len(opsDrills()))
	}
	for i, name := range opsDrills() {
		if rep.Drills[i].Drill != name {
			t.Errorf("drill %d is %q, want %q (declaration order)", i, rep.Drills[i].Drill, name)
		}
	}
}

// TestFailoverDrillOutcome checks the acceptance arc on the reference
// parameters: the fail-stopped machine is quarantined within the
// debounce window, drained and evicted, its replacement joins the same
// slice and works through probation to healthy, and no load is shed —
// traffic redistributes over the survivors.
func TestFailoverDrillOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("full drill in -short mode")
	}
	if raceEnabled {
		t.Skip("full drill exceeds the test timeout under -race")
	}
	rep, err := suite("xapian", 4, 30, 0.4, 0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
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

// TestReferenceReportUnchanged regenerates the seeded reference report
// with the `make ops` parameters and requires the bytes to match the
// checked-in BENCH_ops.json exactly. Any drift — a changed debounce
// threshold, a reordered transition, a float rounding change — fails
// here before it can silently invalidate the published drill evidence.
func TestReferenceReportUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full 30-slice drill suite in -short mode")
	}
	if raceEnabled {
		t.Skip("full drill suite exceeds the test timeout under -race; the parallel stepping is race-tested in internal/fleet and internal/ctrlplane")
	}
	want, err := os.ReadFile("../../BENCH_ops.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := suite("xapian", 4, 30, 0.4, 0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		t.Fatal("regenerated report differs from BENCH_ops.json; run `make ops` and review the diff")
	}
}

// TestSuiteRejectsBadGeometry covers the flag-validation paths: the
// suite must refuse impossible geometry with an error naming the flag.
func TestSuiteRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		name             string
		machines, slices int
		load, capFrac    float64
		wantSub          string
	}{
		{"one machine", 1, 30, 0.4, 0.8, "-machines"},
		{"zero slices", 4, 0, 0.4, 0.8, "-slices"},
		{"zero load", 4, 30, 0, 0.8, "-load"},
		{"load above one", 4, 30, 1.5, 0.8, "-load"},
		{"zero cap", 4, 30, 0.4, 0, "-cap"},
		{"cap above one", 4, 30, 0.4, 2, "-cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := suite("xapian", tc.machines, tc.slices, tc.load, tc.capFrac, 7)
			if err == nil {
				t.Fatal("suite accepted bad geometry")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not name %s", err, tc.wantSub)
			}
		})
	}
}
