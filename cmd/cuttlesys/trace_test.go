package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cuttlesys/internal/obs"
)

func sampleEvents() []obs.Event {
	return []obs.Event{
		obs.Span(obs.SpanSlice, 0, 0.1).WithMachine(0).WithSlice(0),
		obs.Span(obs.SpanDecide, 0.002, 0.0005).WithMachine(0).WithSlice(0),
		obs.Instant(obs.EventQoSViolation, 0.1).WithMachine(1).WithSlice(1).
			With("p99Ms", obs.Float(9.5)).With("qosMs", obs.Float(8)),
		obs.Span(obs.SpanFleetSlice, 0, 0.1).WithMachine(obs.ClusterMachine).WithSlice(0),
	}
}

func TestConvertDefaultSummaryText(t *testing.T) {
	var buf bytes.Buffer
	if err := convert(&buf, sampleEvents(), false, false, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"4 events", obs.SpanSlice, "qos violations"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary text missing %q:\n%s", want, out)
		}
	}
}

func TestConvertChrome(t *testing.T) {
	var buf bytes.Buffer
	if err := convert(&buf, sampleEvents(), true, false, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"ph": "X"`, `"ph": "i"`, `"name": "cluster"`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %q", want)
		}
	}
}

func TestConvertSummaryJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := convert(&buf, sampleEvents(), false, true, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"events": 4`, `"qos_timeline"`, `"phases"`} {
		if !strings.Contains(out, want) {
			t.Errorf("summary JSON missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("report must end with a newline")
	}
}

// TestRunRoundTripsJSONL drives the trace subcommand end to end: JSONL
// on disk in, the summary JSON written with -o must equal converting
// the events directly.
func TestRunRoundTripsJSONL(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "trace.jsonl")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(f, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "summary.json")
	if err := run([]string{"trace", "-summary", "-top", "5", "-o", out, in}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := convert(&direct, sampleEvents(), false, true, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, direct.Bytes()) {
		t.Errorf("file round-trip diverged from direct conversion:\n%s\nvs\n%s", got, direct.Bytes())
	}
}

// TestRunRejectsUnexportableTrace: a trace whose times the exporters
// cannot carry fails at ingestion with the offending line named, in
// every output mode, instead of printing "+Infs simulated" or a bare
// JSON encoder error.
func TestRunRejectsUnexportableTrace(t *testing.T) {
	in := filepath.Join(t.TempDir(), "trace.jsonl")
	bad := `{"kind":"span","name":"slice","t":0,"dur":0.1,"machine":0,"slice":0}` + "\n" +
		`{"kind":"span","name":"slice","t":1e308,"dur":0.1,"machine":0,"slice":1}` + "\n"
	if err := os.WriteFile(in, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{nil, {"-chrome"}, {"-summary"}} {
		err := run(append(append([]string{"trace"}, mode...), in), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("trace %v: error %v, want one naming line 2", mode, err)
		}
	}
}

// TestRunRejectsTopBelowOne: -top counts spans, and a count below one
// is refused naming the flag instead of quietly becoming the default.
func TestRunRejectsTopBelowOne(t *testing.T) {
	in := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(f, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, top := range []string{"0", "-1"} {
		err := run([]string{"trace", "-top", top, in}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-top "+top) {
			t.Errorf("trace -top %s: error %v, want one naming -top", top, err)
		}
	}
}
