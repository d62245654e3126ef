package obs

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestReadJSONLRejectsUnexportable: a trace line whose t or dur is
// negative or too large for the Chrome export's microsecond
// conversion, or whose machine lies below the cluster scope, is
// refused at ingestion with its line number — not accepted and left to
// fail later as `+Infs simulated` or a bare `json: unsupported value`.
func TestReadJSONLRejectsUnexportable(t *testing.T) {
	const ok = `{"kind":"span","name":"slice","t":0,"dur":0.1,"machine":0,"slice":0}` + "\n"
	for _, bad := range []string{
		`{"kind":"span","name":"slice","t":1e308,"dur":0.1,"machine":0,"slice":1}`,
		`{"kind":"span","name":"slice","t":0.1,"dur":1e308,"machine":0,"slice":1}`,
		`{"kind":"span","name":"slice","t":0.1,"dur":-5,"machine":0,"slice":1}`,
		`{"kind":"instant","name":"qos.violation","t":-0.1,"machine":0,"slice":1}`,
		`{"kind":"span","name":"slice","t":0.1,"dur":0.1,"machine":-3,"slice":1}`,
	} {
		_, err := ReadJSONL(strings.NewReader(ok + bad + "\n"))
		if err == nil {
			t.Errorf("accepted %s", bad)
			continue
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("error %q does not name line 2", err)
		}
	}

	// The largest accepted magnitudes still export: every consumer of
	// an accepted trace succeeds.
	edge := `{"kind":"span","name":"slice","t":1e299,"dur":1e299,"machine":-1,"slice":0}` + "\n"
	events, err := ReadJSONL(strings.NewReader(ok + edge))
	if err != nil {
		t.Fatal(err)
	}
	checkConsumers(t, events)
}

// checkConsumers asserts what every accepted trace must support: the
// Chrome export, the JSON summary, and a JSONL round trip that
// reproduces the events exactly.
func checkConsumers(t *testing.T, events []Event) {
	t.Helper()
	if err := WriteChromeTrace(&bytes.Buffer{}, events); err != nil {
		t.Fatalf("chrome export of an accepted trace: %v", err)
	}
	if _, err := EncodeReport(Summarize(events, 0)); err != nil {
		t.Fatalf("summary of an accepted trace: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatalf("re-export of an accepted trace: %v", err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("re-export does not read back: %v\n%s", err, buf.Bytes())
	}
	if !reflect.DeepEqual(back, events) {
		t.Fatalf("JSONL round trip changed the events:\n%+v\n%+v", events, back)
	}
}

// FuzzReadJSONL feeds hostile trace JSONL to the reader, seeded with
// the obs-chaos reference trace (testdata/obs-chaos.jsonl, written by
// `cuttlesys report obs -trace`). ReadJSONL must
// never panic, and whatever it accepts must convert to Chrome JSON,
// summarise to an encodable report and round-trip through WriteJSONL.
//
//	go test ./internal/obs -run '^$' -fuzz FuzzReadJSONL -fuzztime 60s
func FuzzReadJSONL(f *testing.F) {
	trace, err := os.ReadFile("testdata/obs-chaos.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	events, err := ReadJSONL(bytes.NewReader(trace))
	if err != nil {
		f.Fatal(err)
	}
	// Whole-trace seeds make the engine's minimisation crawl, so the
	// seeds are the run's first 32 lines (slice 0 across the fleet) and
	// the first line of every event name.
	lines := bytes.SplitAfter(trace, []byte("\n"))
	f.Add(bytes.Join(lines[:32], nil))
	seen := map[string]bool{}
	for i, e := range events {
		if !seen[e.Name] {
			seen[e.Name] = true
			f.Add(lines[i])
		}
	}
	f.Add([]byte(`{"kind":"instant","name":"qos.violation","t":0.1,"machine":1,"slice":1,"attrs":{"p99Ms":"NaN","qosMs":"+Inf"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkConsumers(t, events)
	})
}
