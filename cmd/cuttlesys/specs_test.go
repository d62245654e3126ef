package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
	if err := run([]string{"validate"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "validated 22 spec(s)") {
		t.Errorf("library validation output %q, want 22 specs", out)
	}
	names := append([]string{"sim"}, suiteScenarios()...)
	for _, battery := range resilienceBatteries {
		names = append(names, "resilience-"+battery)
	}
	for _, name := range names {
		if !strings.Contains(out, "ok "+name) {
			t.Errorf("library validation missing %q", name)
		}
	}
}

// TestListSpecs pins the list roster: one line per embedded spec in
// lexical order, each naming its clients, fault count and control
// clauses, and the whole output stable run to run.
func TestListSpecs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"list"}, &buf); err != nil {
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
	if len(names) != 22 {
		t.Errorf("roster has %d specs, want 22", len(names))
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
	if err := run([]string{"list"}, &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two list runs produced different bytes")
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
	if err := run([]string{"validate", good}, &buf); err != nil {
		t.Fatalf("on-disk spec rejected: %v", err)
	}
	bad := filepath.Join(dir, "broken.spec")
	if err := os.WriteFile(bad, []byte("scenario broken\nnonsense clause\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"validate", bad}, &buf)
	if err == nil {
		t.Fatal("broken spec validated")
	}
	if !strings.Contains(err.Error(), "broken.spec") {
		t.Errorf("error %q does not name the file", err)
	}
}

// TestDescribeIsCanonical checks that describe leads with the exact
// canonical rendering (so its output can be saved back as a spec) and
// appends the compiled summary, at the spec's own geometry, as
// comments.
func TestDescribeIsCanonical(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"describe", "steady"}, &buf); err != nil {
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

// TestRunSpecOverrides runs one small spec with geometry flags, given
// after the spec name, and checks the report reflects the flags, not
// the spec's declarations.
func TestRunSpecOverrides(t *testing.T) {
	if testing.Short() {
		t.Skip("full spec run in -short mode")
	}
	var buf bytes.Buffer
	if err := run([]string{"run", "steady", "-machines", "2", "-slices", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	var sr ScenarioReport
	if err := json.Unmarshal(buf.Bytes(), &sr); err != nil {
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
