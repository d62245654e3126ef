package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// Recorder is the enabled Collector: it buffers trace events, feeds
// metric updates into a Registry and wall samples into a Profile, and
// exports everything deterministically. Events are tagged with a
// per-machine sequence number at arrival; exports order them by
// (time, machine, sequence). Because each machine's events come from
// the single goroutine stepping that machine, the per-machine
// sequences — and therefore every export — are independent of
// goroutine interleaving.
type Recorder struct {
	mu   sync.Mutex
	evs  []taggedEvent
	seq  map[int]uint64
	reg  *Registry
	prof *Profile
}

type taggedEvent struct {
	ev  Event
	seq uint64
}

// NewRecorder builds an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		seq:  map[int]uint64{},
		reg:  newRegistry(),
		prof: newProfile(),
	}
}

// Enabled implements Collector.
func (r *Recorder) Enabled() bool { return true }

// Emit implements Collector. Events that reach a recorder unstamped
// (no Scope on the path) are clamped to t = 0.
func (r *Recorder) Emit(e Event) {
	if e.T < 0 || math.IsNaN(e.T) {
		e.T = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seq[e.Machine]
	r.seq[e.Machine] = s + 1
	r.evs = append(r.evs, taggedEvent{ev: e, seq: s})
}

// Add implements Collector.
func (r *Recorder) Add(name string, labels Attrs, v float64) { r.reg.add(name, labels, v) }

// Set implements Collector.
func (r *Recorder) Set(name string, labels Attrs, v float64) { r.reg.set(name, labels, v) }

// Observe implements Collector.
func (r *Recorder) Observe(name string, labels Attrs, v float64) { r.reg.observe(name, labels, v) }

// Wall implements Collector.
func (r *Recorder) Wall(phase string, wallNs int64, allocBytes uint64) {
	r.prof.record(phase, wallNs, allocBytes)
}

// Registry returns the recorder's metric registry.
func (r *Recorder) Registry() *Registry { return r.reg }

// Profile returns the recorder's wall/allocation profile — the one
// host-dependent product, excluded from deterministic comparisons.
func (r *Recorder) Profile() *Profile { return r.prof }

// Len returns the number of buffered events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.evs)
}

// Events returns the buffered events sorted by (time, machine,
// per-machine sequence) — the canonical deterministic order every
// exporter uses.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	tagged := make([]taggedEvent, len(r.evs))
	copy(tagged, r.evs)
	r.mu.Unlock()
	sort.Slice(tagged, func(i, j int) bool {
		a, b := tagged[i], tagged[j]
		if a.ev.T != b.ev.T {
			return a.ev.T < b.ev.T
		}
		if a.ev.Machine != b.ev.Machine {
			return a.ev.Machine < b.ev.Machine
		}
		return a.seq < b.seq
	})
	out := make([]Event, len(tagged))
	for i, te := range tagged {
		out[i] = te.ev
	}
	return out
}

// WriteJSONL writes the recorder's events as trace JSONL.
func (r *Recorder) WriteJSONL(w io.Writer) error { return WriteJSONL(w, r.Events()) }

// WriteChromeTrace writes the recorder's events as Chrome trace JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer) error { return WriteChromeTrace(w, r.Events()) }

// WritePrometheus writes the recorder's metrics snapshot.
func (r *Recorder) WritePrometheus(w io.Writer) error { return r.reg.writePrometheus(w) }

// lineEvent is the JSONL wire form; field order is the line's byte
// order, attrs marshal key-sorted (encoding/json sorts map keys).
type lineEvent struct {
	Kind    string            `json:"kind"`
	Name    string            `json:"name"`
	T       float64           `json:"t"`
	Dur     float64           `json:"dur,omitempty"`
	Machine int               `json:"machine"`
	Slice   int               `json:"slice"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// WriteJSONL writes one JSON object per event — the interchange form
// `cuttlesys trace` consumes. Pass events in Recorder.Events order for the
// canonical byte-deterministic file.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		le := lineEvent{
			Kind: e.Kind.String(), Name: e.Name,
			T: e.T, Dur: e.Dur, Machine: e.Machine, Slice: e.Slice,
		}
		if n := e.Attrs.Len(); n > 0 {
			le.Attrs = make(map[string]string, n)
			for i := 0; i < n; i++ {
				a := e.Attrs.At(i)
				le.Attrs[a.Key] = a.Val
			}
		}
		if err := enc.Encode(&le); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a trace JSONL stream back into events. Attribute
// insertion order is normalised to key order, matching what a
// re-export would produce anyway. A line the exporters could not carry
// is refused with its line number: a t or dur that is negative,
// non-finite or too large for the Chrome export's microsecond
// conversion, or a machine below ClusterMachine.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var le lineEvent
		if err := json.Unmarshal(line, &le); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		if err := checkSimSec("t", le.T); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		if err := checkSimSec("dur", le.Dur); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		if le.Machine < ClusterMachine {
			return nil, fmt.Errorf("obs: trace line %d: machine %d is below the cluster scope (%d)", lineNo, le.Machine, ClusterMachine)
		}
		e := Event{
			Name: le.Name, T: le.T, Dur: le.Dur,
			Machine: le.Machine, Slice: le.Slice,
		}
		if le.Kind == InstantEvent.String() {
			e.Kind = InstantEvent
		}
		if len(le.Attrs) > 0 {
			keys := make([]string, 0, len(le.Attrs))
			for k := range le.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				e.Attrs = e.Attrs.with(k, le.Attrs[k])
			}
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return out, nil
}

// checkSimSec rejects a simulated-time value the exporters cannot
// carry: negative, non-finite, or so large that usec overflows.
func checkSimSec(field string, v float64) error {
	if !(v >= 0) || math.IsInf(v*1e9, 0) {
		return fmt.Errorf("%s %v is negative, non-finite or beyond the microsecond range", field, v)
	}
	return nil
}

// chromeEvent is one trace_event record; ts and dur are microseconds
// of simulated time.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// usec converts simulated seconds to Chrome's microseconds, rounded
// to nanosecond resolution so binary float noise (0.1 s × 1e6) does
// not leak odd digits into the file.
func usec(sec float64) float64 { return math.Round(sec*1e9) / 1e3 }

// WriteChromeTrace writes events in the Chrome trace_event JSON
// format, loadable in chrome://tracing (or ui.perfetto.dev): one
// process per machine (pid = machine index + 1, so the cluster scope
// is pid 0), spans as complete "X" events, instants as "i" events.
// Pass events in Recorder.Events order for byte-determinism.
func WriteChromeTrace(w io.Writer, events []Event) error {
	machines := map[int]bool{}
	for _, e := range events {
		machines[e.Machine] = true
	}
	ids := make([]int, 0, len(machines))
	for m := range machines {
		ids = append(ids, m)
	}
	sort.Ints(ids)

	tr := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for _, m := range ids {
		name := fmt.Sprintf("machine %d", m)
		if m == ClusterMachine {
			name = "cluster"
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: m + 1, Tid: 0,
			Args: map[string]string{"name": name},
		})
	}
	for _, e := range events {
		ce := chromeEvent{
			Name: e.Name, Ts: usec(e.T), Pid: e.Machine + 1, Tid: 1,
		}
		if e.Kind == InstantEvent {
			ce.Ph, ce.S = "i", "p"
		} else {
			ce.Ph = "X"
			ce.Dur = usec(e.Dur)
		}
		n := e.Attrs.Len()
		ce.Args = make(map[string]string, n+1)
		for i := 0; i < n; i++ {
			a := e.Attrs.At(i)
			ce.Args[a.Key] = a.Val
		}
		if e.Slice >= 0 {
			ce.Args["slice"] = Itoa(e.Slice)
		}
		tr.TraceEvents = append(tr.TraceEvents, ce)
	}
	buf, err := EncodeReport(&tr)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}
