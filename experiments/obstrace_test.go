package experiments

import (
	"bytes"
	"os"
	"runtime"
	"sync"
	"testing"

	"cuttlesys/internal/fault"
	"cuttlesys/internal/obs"
)

// obsArtifacts is every deterministic export of one RunObsTrace run.
type obsArtifacts struct {
	jsonl   []byte
	chrome  []byte
	prom    []byte
	summary []byte
	events  []obs.Event
}

func captureObsTrace(t *testing.T) *obsArtifacts {
	t.Helper()
	rec, res, err := RunObsTrace(ObsTraceSetup{})
	if err != nil {
		t.Fatalf("RunObsTrace: %v", err)
	}
	if res == nil || len(res.Slices) == 0 {
		t.Fatal("traced run returned no slices")
	}
	a := &obsArtifacts{events: rec.Events()}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	a.jsonl = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	a.chrome = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	a.prom = append([]byte(nil), buf.Bytes()...)
	a.summary, err = obs.EncodeReport(obs.Summarize(a.events, 0))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

var (
	obsOnce   sync.Once
	obsCached *obsArtifacts
)

// defaultObsTrace runs the seeded reference trace once per test
// binary and shares the artifacts across the tests below.
func defaultObsTrace(t *testing.T) *obsArtifacts {
	obsOnce.Do(func() { obsCached = captureObsTrace(t) })
	if obsCached == nil {
		t.Fatal("reference obs trace failed in an earlier test")
	}
	return obsCached
}

// TestObsTraceCarriesFaultTransitions asserts the chaos structure of
// the reference run is visible in the trace: machine 1's fail-stop
// injects and recovers inside the run, and the harness spans frame
// the profile→decide→hold structure.
func TestObsTraceCarriesFaultTransitions(t *testing.T) {
	a := defaultObsTrace(t)
	var inject, recovered int
	kind := string(fault.CoreFailStop)
	for _, e := range a.events {
		if e.Name != obs.EventFaultInject && e.Name != obs.EventFaultRecover {
			continue
		}
		if e.Machine != 1 {
			t.Errorf("fault event on machine %d, want 1: %+v", e.Machine, e)
		}
		var gotKind string
		for i := 0; i < e.Attrs.Len(); i++ {
			if at := e.Attrs.At(i); at.Key == "kind" {
				gotKind = at.Val
			}
		}
		if gotKind != kind {
			t.Errorf("fault event kind %q, want %q", gotKind, kind)
		}
		if e.Name == obs.EventFaultInject {
			inject++
		} else {
			recovered++
		}
	}
	if inject != 1 || recovered != 1 {
		t.Fatalf("got %d inject / %d recover events, want 1/1", inject, recovered)
	}

	spans := map[string]int{}
	for _, e := range a.events {
		if e.Kind == obs.SpanEvent {
			spans[e.Name]++
		}
	}
	for _, name := range []string{obs.SpanSlice, obs.SpanProfile, obs.SpanDecide, obs.SpanFleetSlice} {
		if spans[name] == 0 {
			t.Errorf("trace has no %q spans", name)
		}
	}
}

// TestObsTraceDeterministicAcrossGOMAXPROCS re-runs the reference
// trace pinned to one OS thread and requires every simulated-time
// export to be byte-identical to the run at the ambient GOMAXPROCS —
// the core contract of DESIGN.md §10. Wall/allocation profiles are
// host-dependent and deliberately excluded.
func TestObsTraceDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping duplicate traced fleet run")
	}
	ambient := defaultObsTrace(t)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	pinned := captureObsTrace(t)

	for _, c := range []struct {
		name            string
		ambient, pinned []byte
	}{
		{"trace.jsonl", ambient.jsonl, pinned.jsonl},
		{"trace.chrome.json", ambient.chrome, pinned.chrome},
		{"metrics.prom", ambient.prom, pinned.prom},
		{"summary.json", ambient.summary, pinned.summary},
	} {
		if !bytes.Equal(c.ambient, c.pinned) {
			t.Errorf("%s differs between GOMAXPROCS=%d and GOMAXPROCS=1", c.name, prev)
		}
	}
}

// TestObsSummaryMatchesBenchObs is the byte-regression gate on the
// checked-in BENCH_obs.json: the seeded reference run's trace summary
// must reproduce it exactly. Regenerate with `make bench-obs` after
// an intentional change.
func TestObsSummaryMatchesBenchObs(t *testing.T) {
	want, err := os.ReadFile("../BENCH_obs.json")
	if err != nil {
		t.Fatalf("reading BENCH_obs.json (regenerate with `make bench-obs`): %v", err)
	}
	a := defaultObsTrace(t)
	if !bytes.Equal(a.summary, want) {
		t.Errorf("trace summary diverged from BENCH_obs.json (%d vs %d bytes); regenerate with `make bench-obs` if intentional", len(a.summary), len(want))
	}
}

// TestObsTraceChromeLoadable sanity-checks the Chrome export carries
// the per-machine process metadata chrome://tracing keys on.
func TestObsTraceChromeLoadable(t *testing.T) {
	a := defaultObsTrace(t)
	for _, want := range []string{`"traceEvents"`, `"process_name"`, `"name": "cluster"`, `"name": "machine 1"`} {
		if !bytes.Contains(a.chrome, []byte(want)) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
}
