package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestValidateLibrary is the spec library's gate: every embedded spec
// must parse, render to a canonical fixed point and compile
// self-contained — geometry, arrival processes, fault targets and
// trace references all resolving without flag overrides.
func TestValidateLibrary(t *testing.T) {
	var buf bytes.Buffer
	if err := validateSpecs(nil, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "validated 12 spec(s)") {
		t.Errorf("library validation output %q, want 12 specs", out)
	}
	for _, name := range benchScenarios() {
		if !strings.Contains(out, "ok "+name) {
			t.Errorf("library validation missing %q", name)
		}
	}
}

// TestListSpecs pins the -list roster: one line per embedded spec in
// lexical order, each naming its clients, fault count and control
// clauses, and the whole output stable run to run.
func TestListSpecs(t *testing.T) {
	var buf bytes.Buffer
	if err := listSpecs(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	var names []string
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 4 {
			t.Fatalf("roster line %q lacks the name/clients/faults/control columns", line)
		}
		names = append(names, fields[0])
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("roster not in lexical order: %v", names)
	}
	if len(names) != 12 {
		t.Errorf("roster has %d specs, want 12", len(names))
	}
	byName := make(map[string]string, len(lines))
	for i, line := range lines {
		byName[names[i]] = line
	}
	fo, ok := byName["failover"]
	if !ok || !strings.Contains(fo, "clients=primary") ||
		!strings.Contains(fo, "faults=1") || !strings.Contains(fo, "control=replace-evicted") {
		t.Errorf("failover roster line %q missing clients/faults/control", fo)
	}
	wf := byName["warm-failover"]
	if !strings.Contains(wf, "share=syncperiod:2") {
		t.Errorf("warm-failover roster line %q does not show its share clause", wf)
	}
	if st := byName["steady"]; !strings.Contains(st, "control=bare") {
		t.Errorf("steady roster line %q should be a bare fleet", st)
	}

	var again bytes.Buffer
	if err := listSpecs(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two -list runs produced different bytes")
	}
}

// TestValidateSpecFromDisk covers the on-disk path: a spec file given
// by path validates with trace references resolved relative to its
// own directory, and a broken file fails with its path in the error.
func TestValidateSpecFromDisk(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "tiny.spec")
	src := "scenario tiny\nservice xapian\nmachines 2\nslices 4\nload 0.5\ncap 0.8\n"
	if err := os.WriteFile(good, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := validateSpecs([]string{good}, &buf); err != nil {
		t.Fatalf("on-disk spec rejected: %v", err)
	}
	bad := filepath.Join(dir, "broken.spec")
	if err := os.WriteFile(bad, []byte("scenario broken\nnonsense clause\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := validateSpecs([]string{bad}, &buf)
	if err == nil {
		t.Fatal("broken spec validated")
	}
	if !strings.Contains(err.Error(), "broken.spec") {
		t.Errorf("error %q does not name the file", err)
	}
}

// TestDescribeIsCanonical checks that -describe leads with the exact
// canonical rendering (so its output can be saved back as a spec) and
// appends the compiled summary as comments.
func TestDescribeIsCanonical(t *testing.T) {
	var buf bytes.Buffer
	if err := describeSpec("steady", overrides{Seed: 1}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "scenario steady\n") {
		t.Errorf("describe does not lead with the canonical form:\n%s", out)
	}
	if !strings.Contains(out, "# hash ") || !strings.Contains(out, "# bare fleet: 4 machines x 12 slices") {
		t.Errorf("describe summary missing:\n%s", out)
	}
}

// TestOverrideValidation covers the flag-validation paths: negative
// counts and out-of-range fractions are rejected with the flag named,
// while zero ("defer to the spec") is always accepted.
func TestOverrideValidation(t *testing.T) {
	cases := []struct {
		name    string
		o       overrides
		wantSub string
	}{
		{"negative machines", overrides{Machines: -1}, "-machines"},
		{"negative slices", overrides{Slices: -4}, "-slices"},
		{"negative load", overrides{Load: -0.1}, "-load"},
		{"load above one", overrides{Load: 1.5}, "-load"},
		{"negative cap", overrides{Cap: -1}, "-cap"},
		{"cap above one", overrides{Cap: 2}, "-cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateOverrides(tc.o)
			if err == nil {
				t.Fatal("bad override accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not name %s", err, tc.wantSub)
			}
		})
	}
	if err := validateOverrides(overrides{}); err != nil {
		t.Errorf("all-zero overrides rejected: %v", err)
	}
}

// TestRunSpecOverrides runs one small spec with geometry overrides and
// checks the report reflects the overridden geometry, not the spec's.
func TestRunSpecOverrides(t *testing.T) {
	if testing.Short() {
		t.Skip("full spec run in -short mode")
	}
	sr, err := runSpec("steady", overrides{Machines: 2, Slices: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Machines != 2 || sr.Slices != 4 {
		t.Errorf("report geometry %dx%d, want the 2x4 override", sr.Machines, sr.Slices)
	}
	if sr.Managed {
		t.Error("steady compiled managed; it has no control clause")
	}
	if len(sr.Clients) != 1 || sr.Clients[0].Client != "primary" {
		t.Errorf("clients = %+v, want the implicit primary", sr.Clients)
	}
}

// TestBenchDeterministic is the benchmark report's reproducibility
// contract: a fixed seed produces a byte-identical JSON report, run to
// run and across GOMAXPROCS settings — all stochastic arrival and
// trace draws happen serially at compile time, and the fleet merges
// parallel machine steps in index order.
func TestBenchDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark suite in -short mode")
	}
	if raceEnabled {
		t.Skip("full benchmark suite exceeds the test timeout under -race; the engine is race-tested in internal/scenario and internal/fleet")
	}
	marshal := func() []byte {
		rep, err := bench(overrides{Seed: 1})
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
		t.Fatal("same seed produced different benchmark reports")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := marshal()
	runtime.GOMAXPROCS(8)
	wide := marshal()
	if !bytes.Equal(a, serial) || !bytes.Equal(a, wide) {
		t.Fatal("GOMAXPROCS changed the benchmark report")
	}

	var rep Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != len(benchScenarios()) {
		t.Fatalf("%d scenarios in report, want %d", len(rep.Scenarios), len(benchScenarios()))
	}
	for i, name := range benchScenarios() {
		if rep.Scenarios[i].Scenario != name {
			t.Errorf("scenario %d is %q, want %q (declaration order)", i, rep.Scenarios[i].Scenario, name)
		}
	}
	// correlated-brownout is the suite's managed run: its control
	// section must be present, the others absent.
	for _, sr := range rep.Scenarios {
		if managed := sr.Scenario == "correlated-brownout"; sr.Managed != managed || (sr.Control != nil) != managed {
			t.Errorf("%s: managed=%v control=%v", sr.Scenario, sr.Managed, sr.Control != nil)
		}
	}
}

// TestReferenceReportUnchanged regenerates the seeded reference report
// with the `make bench-scenario` parameters and requires the bytes to
// match the checked-in BENCH_scenario.json exactly. Any drift — a
// changed arrival draw, a reseeded stream, a float rounding change —
// fails here before it can silently invalidate the published numbers.
func TestReferenceReportUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark suite in -short mode")
	}
	if raceEnabled {
		t.Skip("full benchmark suite exceeds the test timeout under -race; the engine is race-tested in internal/scenario and internal/fleet")
	}
	want, err := os.ReadFile("../../BENCH_scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bench(overrides{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		t.Fatal("regenerated report differs from BENCH_scenario.json; run `make bench-scenario` and review the diff")
	}
}
