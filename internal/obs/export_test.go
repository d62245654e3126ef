package obs

import (
	"bytes"
	"io"
	"testing"

	"cuttlesys/internal/pin"
)

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

func TestGoldenExports(t *testing.T) {
	r := fixtureRecorder()
	sum := Summarize(r.Events(), 5)
	report := func(v any) func(io.Writer) error {
		return func(w io.Writer) error {
			b, err := EncodeReport(v)
			w.Write(b)
			return err
		}
	}
	for _, g := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"trace.jsonl", r.WriteJSONL},
		{"trace.chrome.json", r.WriteChromeTrace},
		{"metrics.prom", r.WritePrometheus},
		{"metrics.json", report(r.Registry().Snapshot())},
		{"summary.json", report(sum)},
		{"summary.txt", sum.WriteText},
	} {
		var buf bytes.Buffer
		if err := g.write(&buf); err != nil {
			t.Fatal(err)
		}
		pin.Golden(t, g.name, buf.Bytes())
	}
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
