package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden export files")

// fixtureRecorder builds a small deterministic trace spanning two
// machines and the cluster scope, with every metric kind, emitted out
// of order to exercise the canonical sort.
func fixtureRecorder() *Recorder {
	r := NewRecorder()
	m0 := ForMachine(r, 0)
	m1 := ForMachine(r, 1)

	m1.Emit(Span(SpanSlice, 0.1, 0.1).WithSlice(1).With("sched", "cuttlesys"))
	m0.Emit(Span(SpanSlice, 0, 0.1).WithSlice(0).With("sched", "cuttlesys"))
	m0.Emit(Span(SpanProfile, 0, 0.005).WithSlice(0).With("window", "0").With("attempt", "0"))
	m0.Emit(Span(SpanDecide, 0, 0.0108).WithSlice(0))
	m0.Emit(Span(SpanHold, 0.005, 0.0108).WithSlice(0))
	m0.Emit(Span(SpanSteady, 0.0158, 0.0842).WithSlice(0))
	m1.Emit(Instant(EventQoSViolation, 0.2).WithSlice(1).
		With("p99Ms", Float(9.25)).With("qosMs", Float(8)))
	m0.Emit(Mark(EventFallback)) // unstamped: clamps to t=0
	r.Emit(Instant(EventRoute, 0.1).WithMachine(ClusterMachine).WithSlice(1).
		With("router", "qos-aware"))
	m1.Emit(Instant(EventFaultInject, 0.1).With("kind", "core-failstop"))

	m0.Add(MetricSlices, NoLabels, 1)
	m1.Add(MetricSlices, NoLabels, 2)
	m0.Set(MetricPowerW, NoLabels, 81.5)
	m1.Observe(MetricP99Hist, NoLabels, 9.25)
	m1.Observe(MetricP99Hist, NoLabels, 4)
	r.Add(MetricFleetSlices, NoLabels, 2)
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

func TestGoldenExports(t *testing.T) {
	r := fixtureRecorder()

	var jsonl bytes.Buffer
	if err := r.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.jsonl", jsonl.Bytes())

	var chrome bytes.Buffer
	if err := r.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.chrome.json", chrome.Bytes())

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom", prom.Bytes())

	mjson, err := EncodeReport(r.Registry().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.json", mjson)

	sum, err := EncodeReport(Summarize(r.Events(), 5))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summary.json", sum)

	var text bytes.Buffer
	if err := Summarize(r.Events(), 5).WriteText(&text); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summary.txt", text.Bytes())
}

func TestReadJSONLMatchesEvents(t *testing.T) {
	r := fixtureRecorder()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Events()
	if len(back) != len(want) {
		t.Fatalf("got %d events, want %d", len(back), len(want))
	}
	for i := range back {
		if back[i].Name != want[i].Name || back[i].T != want[i].T ||
			back[i].Machine != want[i].Machine || back[i].Kind != want[i].Kind {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, back[i], want[i])
		}
	}
}
