package specs

import (
	"bytes"
	"io/fs"
	"sort"
	"testing"

	"cuttlesys/internal/scenario"
)

// TestNamesSortedAndComplete pins the library roster: Names() is the
// lexical list of embedded specs, and the scenarios the reference
// reports depend on are all present.
func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, n := range []string{
		"steady", "diurnal", "degraded-node", "budget-squeeze", // report fleet
		"failover", "brownout", "surge", // report ops
		"flash-crowd", "load-shift-storm", "correlated-brownout", "trace-replay", // report scenario
		"obs-chaos",  // report obs, make trace
		"warm-drill", // report warmstart
		"sim",        // cuttlesys sim
		// report resilience
		"resilience-fault-free", "resilience-core-failstop", "resilience-core-failslow",
		"resilience-profile-corrupt", "resilience-garbage-telemetry",
		"resilience-flash-crowd", "resilience-budget-drop",
	} {
		if !have[n] {
			t.Errorf("library missing spec %q", n)
		}
	}
}

// TestAllSpecsParseAndRoundTrip requires every embedded spec to parse,
// declare the name it is filed under, and survive the canonical
// round trip — Format(Parse(src)) must be a fixed point, so the file
// on disk and the engine's canonical form never drift apart.
func TestAllSpecsParseAndRoundTrip(t *testing.T) {
	for _, name := range Names() {
		src, err := Source(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sp, err := scenario.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sp.Name != name {
			t.Errorf("%s.spec declares scenario %q", name, sp.Name)
		}
		canon := scenario.Format(sp)
		again, err := scenario.Parse(canon)
		if err != nil {
			t.Fatalf("%s: canonical form does not re-parse: %v", name, err)
		}
		if !bytes.Equal(scenario.Format(again), canon) {
			t.Errorf("%s: canonical form is not a fixed point", name)
		}
	}
}

// TestAllSpecsCompileSelfContained compiles every spec with zero
// overrides: the library promises each file carries its full geometry
// and that replay clauses resolve against the embedded trace files.
func TestAllSpecsCompileSelfContained(t *testing.T) {
	for _, name := range Names() {
		src, err := Source(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sp, err := scenario.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := scenario.Compile(sp, scenario.Options{Seed: 1, FS: FS}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestTraceFilesEmbedded checks the trace directory rides along in the
// embedded filesystem.
func TestTraceFilesEmbedded(t *testing.T) {
	data, err := fs.ReadFile(FS, "traces/prod-day.csv")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := scenario.ParseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("embedded trace is empty")
	}
}

// TestSourceUnknown checks the error path names the missing spec.
func TestSourceUnknown(t *testing.T) {
	if _, err := Source("no-such-spec"); err == nil {
		t.Fatal("unknown spec name returned a source")
	}
}
