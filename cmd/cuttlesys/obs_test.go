package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"cuttlesys/internal/fault"
	"cuttlesys/internal/obs"
)

// obsArtifacts is the three simulated-time exports of one `report obs`
// run at its reference defaults (the obs-chaos spec), plus the events
// read back from the JSONL.
type obsArtifacts struct {
	jsonl, chrome, prom []byte
	events              []obs.Event
}

func captureObs(t *testing.T) *obsArtifacts {
	t.Helper()
	var p params
	for _, r := range reports {
		if r.name == "obs" {
			p = r.defaults
		}
	}
	dir := t.TempDir()
	p.Trace = filepath.Join(dir, "trace.jsonl")
	p.Chrome = filepath.Join(dir, "trace.chrome.json")
	p.Prom = filepath.Join(dir, "metrics.prom")
	if _, err := obsReport(p); err != nil {
		t.Fatal(err)
	}
	var a obsArtifacts
	for _, f := range []struct {
		path string
		dst  *[]byte
	}{{p.Trace, &a.jsonl}, {p.Chrome, &a.chrome}, {p.Prom, &a.prom}} {
		buf, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		*f.dst = buf
	}
	events, err := obs.ReadJSONL(bytes.NewReader(a.jsonl))
	if err != nil {
		t.Fatal(err)
	}
	a.events = events
	return &a
}

var (
	obsOnce   sync.Once
	obsCached *obsArtifacts
)

// defaultObs runs the reference traced run once per test binary and
// shares its artifacts across the tests below.
func defaultObs(t *testing.T) *obsArtifacts {
	obsOnce.Do(func() { obsCached = captureObs(t) })
	if obsCached == nil {
		t.Fatal("reference obs run failed in an earlier test")
	}
	return obsCached
}

// TestObsTraceCarriesFaultTransitions asserts the chaos structure of
// the reference run is visible in the trace: machine 1's fail-stop
// injects and recovers inside the run, and the harness spans frame
// the profile→decide→hold structure.
func TestObsTraceCarriesFaultTransitions(t *testing.T) {
	a := defaultObs(t)
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

// TestObsTraceChromeLoadable sanity-checks the Chrome export carries
// the per-machine process metadata chrome://tracing keys on.
func TestObsTraceChromeLoadable(t *testing.T) {
	a := defaultObs(t)
	for _, want := range []string{`"traceEvents"`, `"process_name"`, `"name": "cluster"`, `"name": "machine 1"`} {
		if !bytes.Contains(a.chrome, []byte(want)) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
}

// TestObsTraceDeterministicAcrossGOMAXPROCS runs the reference trace at
// GOMAXPROCS 1 and 8 and requires every simulated-time export to be
// byte-identical — the core contract of DESIGN.md §10. (The summary is
// held to BENCH_obs.json at both settings by the report byte gate.)
// Wall/allocation profiles are host-dependent and deliberately
// excluded.
func TestObsTraceDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping duplicate traced fleet runs")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	one := captureObs(t)
	runtime.GOMAXPROCS(8)
	eight := captureObs(t)
	for _, c := range []struct {
		name       string
		one, eight []byte
	}{
		{"trace.jsonl", one.jsonl, eight.jsonl},
		{"trace.chrome.json", one.chrome, eight.chrome},
		{"metrics.prom", one.prom, eight.prom},
	} {
		if !bytes.Equal(c.one, c.eight) {
			t.Errorf("%s differs between GOMAXPROCS=1 and GOMAXPROCS=8", c.name)
		}
	}
}
