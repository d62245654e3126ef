package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestSweepDeterministic is the report's reproducibility contract: a
// fixed seed produces a byte-identical JSON report, run to run and
// across GOMAXPROCS settings — the fleet merges parallel machine
// steps in index order and per-machine SGD sweeps in serial order at
// any processor count.
func TestSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	if raceEnabled {
		t.Skip("full sweep exceeds the test timeout under -race; the parallel merge is race-tested in internal/fleet")
	}
	marshal := func() []byte {
		rep, err := sweep("xapian", 2, 4, 0.7, 0.65, 1)
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
		t.Fatal("same seed produced different reports")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	wide := marshal()
	if !bytes.Equal(a, wide) {
		t.Fatal("GOMAXPROCS changed the report")
	}

	var rep Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(fleetScenarios()) {
		t.Fatalf("%d scenarios in report, want %d", len(rep.Results), len(fleetScenarios()))
	}

	// The report must enumerate scenarios and policies in declaration
	// order — the sweep iterates slices, never maps, so the layout of
	// the JSON is part of the byte-stability contract.
	for i, name := range fleetScenarios() {
		if rep.Results[i].Scenario != name {
			t.Errorf("result %d is %q, want %q (declaration order)", i, rep.Results[i].Scenario, name)
		}
		for j, pol := range fleetPolicies() {
			if rep.Results[i].Policies[j].Policy != pol.name {
				t.Errorf("%s policy %d is %q, want %q (declaration order)", name, j, rep.Results[i].Policies[j].Policy, pol.name)
			}
		}
	}

	// The scaling section must cover 1, 4 and 16 machines, and the
	// modeled controller speedup must grow with the fleet.
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

// TestReferenceReportUnchanged regenerates the seeded reference report
// with the `make fleet` parameters and requires the bytes to match the
// checked-in BENCH_fleet.json exactly. Any drift — a changed routing
// weight, reordered map iteration, a float rounding change — fails
// here before it can silently invalidate the published numbers.
func TestReferenceReportUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full 12-slice sweep in -short mode")
	}
	if raceEnabled {
		t.Skip("full sweep exceeds the test timeout under -race; the parallel merge is race-tested in internal/fleet")
	}
	want, err := os.ReadFile("../../BENCH_fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sweep("xapian", 4, 12, 0.7, 0.65, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		t.Fatal("regenerated report differs from BENCH_fleet.json; run `make fleet` and review the diff")
	}
}

// TestSweepRejectsBadGeometry covers the flag-validation paths: the
// sweep must refuse impossible geometry with an error naming the flag
// instead of tripping over it machines deep in the engine.
func TestSweepRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		name             string
		machines, slices int
		load, capFrac    float64
		wantSub          string
	}{
		{"zero machines", 0, 12, 0.7, 0.65, "-machines"},
		{"negative machines", -3, 12, 0.7, 0.65, "-machines"},
		{"zero slices", 4, 0, 0.7, 0.65, "-slices"},
		{"zero load", 4, 12, 0, 0.65, "-load"},
		{"load above one", 4, 12, 1.2, 0.65, "-load"},
		{"negative cap", 4, 12, 0.7, -0.1, "-cap"},
		{"cap above one", 4, 12, 0.7, 1.01, "-cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sweep("xapian", tc.machines, tc.slices, tc.load, tc.capFrac, 1)
			if err == nil {
				t.Fatal("sweep accepted bad geometry")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not name %s", err, tc.wantSub)
			}
		})
	}
}
