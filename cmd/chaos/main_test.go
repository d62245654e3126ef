package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// TestSweepDeterministic is the report's reproducibility contract: a
// fixed seed produces a byte-identical JSON report, run to run and at
// any GOMAXPROCS.
func TestSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	marshal := func() []byte {
		rep, err := sweep("xapian", 3, 12, 0.8, 0.7, 1)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	a := marshal()
	runtime.GOMAXPROCS(1)
	if b := marshal(); !bytes.Equal(a, b) {
		t.Fatal("same seed produced different reports at GOMAXPROCS 8 and 1")
	}

	var rep Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(scenarios()) {
		t.Fatalf("%d scenarios in report, want %d", len(rep.Results), len(scenarios()))
	}
	for _, sc := range rep.Results {
		if len(sc.Policies) != len(policies) {
			t.Fatalf("%s: %d policies, want %d", sc.Scenario, len(sc.Policies), len(policies))
		}
	}

	// The report must enumerate scenarios and policies in declaration
	// order — the sweep iterates slices, never maps, so the layout of
	// the JSON is part of the byte-stability contract.
	for i, sc := range scenarios() {
		if rep.Results[i].Scenario != sc.name {
			t.Errorf("result %d is %q, want %q (declaration order)", i, rep.Results[i].Scenario, sc.name)
		}
		for j, policy := range policies {
			if rep.Results[i].Policies[j].Policy != policy {
				t.Errorf("%s policy %d is %q, want %q (declaration order)", sc.name, j, rep.Results[i].Policies[j].Policy, policy)
			}
		}
	}

	// The fault-free scenario must not distinguish the hardened runtime
	// from the trusting control: with no faults the guards never fire.
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

// TestReferenceReportUnchanged regenerates the seeded reference report
// with the `make chaos` parameters and requires the bytes to match the
// checked-in BENCH_resilience.json exactly. Any drift — reordered map
// iteration, a changed guard, a float rounding change — fails here
// before it can silently invalidate the published numbers.
func TestReferenceReportUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full 30-slice sweep in -short mode")
	}
	want, err := os.ReadFile("../../BENCH_resilience.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sweep("xapian", 3, 30, 0.8, 0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		t.Fatal("regenerated report differs from BENCH_resilience.json; run `make chaos` and review the diff")
	}
}
