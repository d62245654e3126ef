// Package obs is the observability subsystem: a deterministic
// structured trace keyed to simulated time, a metrics registry with
// Prometheus and sorted-JSON exports, and wall-clock/allocation
// profiling hooks — all behind one Collector interface whose no-op
// implementation costs nothing, so instrumented hot paths (the
// harness slice loop, the runtime's decision phases, fleet stepping)
// pay zero allocations when observability is disabled.
//
// Determinism contract (DESIGN.md §10): every simulated-time output —
// the JSONL and Chrome traces, the Prometheus text exposition and the
// JSON metrics snapshot — is a pure function of the run's seed,
// byte-identical at any GOMAXPROCS. The one host-dependent product,
// the wall/allocation Profile, is carried separately and is excluded
// from all byte-regression comparisons. The rules that make this
// hold:
//
//   - events are timestamped with simulated seconds, never host time;
//   - the Recorder orders events by (time, machine, per-machine
//     sequence), and each machine's events are emitted from the single
//     goroutine stepping that machine (the fleet's one-writer rule),
//     so per-machine sequences are schedule-independent;
//   - metric updates for a series happen either from one machine's
//     stepping goroutine (ForMachine-labelled series) or from the
//     fleet's serial sections (cluster series) — never from two
//     goroutines racing on one float accumulator;
//   - exporters sort everything: events by time, series by name and
//     label set, attributes by key.
package obs

import "strconv"

// maxAttrs bounds the labels carried by one event or metric update.
// Attrs travels by value through the Collector interface precisely so
// the disabled path never allocates; a fixed array is the price.
// Attrs beyond the capacity are dropped silently — instrumentation
// must budget its keys (the taxonomy in names.go stays within it).
const maxAttrs = 4

// Attr is one key/value annotation on a trace event or metric series.
type Attr struct {
	Key, Val string
}

// Attrs is a fixed-capacity label set, passed by value.
type Attrs struct {
	kv [maxAttrs]Attr
	n  int
}

// NoLabels is the empty label set.
var NoLabels Attrs

// Label builds a single-entry label set.
func Label(k, v string) Attrs { return Attrs{}.with(k, v) }

// With returns a copy of a with (k, v) appended.
func (a Attrs) with(k, v string) Attrs {
	if a.n < maxAttrs {
		a.kv[a.n] = Attr{Key: k, Val: v}
		a.n++
	}
	return a
}

// Len returns the number of attributes set.
func (a Attrs) Len() int { return a.n }

// At returns attribute i in insertion order.
func (a Attrs) At(i int) Attr { return a.kv[i] }

// sorted returns the attributes ordered by key (insertion order for
// duplicates). The array is tiny, so an insertion sort avoids both an
// allocation and a sort.Slice closure.
func (a Attrs) sorted() Attrs {
	for i := 1; i < a.n; i++ {
		for j := i; j > 0 && a.kv[j].Key < a.kv[j-1].Key; j-- {
			a.kv[j], a.kv[j-1] = a.kv[j-1], a.kv[j]
		}
	}
	return a
}

// EventKind distinguishes spans (an interval of simulated time) from
// instants (a point).
type EventKind byte

const (
	// SpanEvent covers [T, T+Dur) of simulated time.
	SpanEvent EventKind = iota
	// InstantEvent marks a single point in simulated time.
	InstantEvent
)

// String returns the JSONL encoding of the kind.
func (k EventKind) String() string {
	if k == InstantEvent {
		return "instant"
	}
	return "span"
}

// ClusterMachine scopes an event to the whole cluster rather than one
// machine; it sorts before every machine index.
const ClusterMachine = -1

// Event is one trace record. T and Dur are simulated seconds — never
// host time — which is what keeps traces byte-deterministic.
type Event struct {
	Kind EventKind
	Name string
	// T is the simulated start time in seconds. Negative means
	// "unstamped": a Scope fills in the current slice's start time.
	T float64
	// Dur is the span length in simulated seconds (0 for instants).
	Dur float64
	// Machine is the emitting machine's fleet index (0 on
	// single-machine runs, ClusterMachine for fleet-level events).
	Machine int
	// Slice is the decision-quantum index, -1 when unknown; a Scope
	// fills it in alongside T.
	Slice int
	// Attrs annotate the event (configuration chosen, fault kind, …).
	Attrs Attrs
}

// Span builds a span event covering [t, t+dur).
func Span(name string, t, dur float64) Event {
	return Event{Kind: SpanEvent, Name: name, T: t, Dur: dur, Slice: -1}
}

// Instant builds an instant event at t.
func Instant(name string, t float64) Event {
	return Event{Kind: InstantEvent, Name: name, T: t, Slice: -1}
}

// Mark builds an unstamped instant: a Scope assigns it the current
// slice's start time and index on the way through.
func Mark(name string) Event { return Instant(name, -1) }

// With returns a copy of e with the attribute appended.
func (e Event) With(k, v string) Event {
	e.Attrs = e.Attrs.with(k, v)
	return e
}

// WithMachine returns a copy of e scoped to the machine index.
func (e Event) WithMachine(m int) Event {
	e.Machine = m
	return e
}

// WithSlice returns a copy of e stamped with the slice index.
func (e Event) WithSlice(s int) Event {
	e.Slice = s
	return e
}

// End returns the span's simulated end time.
func (e Event) end() float64 { return e.T + e.Dur }

// Float renders a float attribute value in Go's shortest round-trip
// form — the same encoding encoding/json uses, so values survive a
// JSONL round trip exactly.
func Float(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Itoa renders an integer attribute value.
func Itoa(v int) string { return strconv.Itoa(v) }

// Collector is the hook surface the instrumented subsystems call.
// Implementations must be safe for the caller pattern documented on
// each method; the package-level Nop satisfies everything at zero
// cost. All parameters are values (fixed-size Attrs, no variadics) so
// calls through the interface never force a heap allocation.
type Collector interface {
	// Enabled reports whether anything is listening. Hot paths guard
	// attribute formatting (strconv etc.) behind it.
	Enabled() bool
	// Emit records a trace event. Events for one machine must be
	// emitted from the single goroutine stepping that machine.
	Emit(Event)
	// Add increments the counter series (name, labels) by v.
	Add(name string, labels Attrs, v float64)
	// Set sets the gauge series (name, labels) to v.
	Set(name string, labels Attrs, v float64)
	// Observe records v into the histogram series (name, labels).
	Observe(name string, labels Attrs, v float64)
	// Wall records the measured host cost of one phase: wall-clock
	// nanoseconds and heap bytes allocated. Host-dependent by nature,
	// it is quarantined in the Profile and never reaches the
	// deterministic exports.
	Wall(phase string, wallNs int64, allocBytes uint64)
}

// Nop is the disabled collector: every method is an empty,
// allocation-free no-op and Enabled reports false.
var Nop Collector = nop{}

type nop struct{}

func (nop) Enabled() bool                  { return false }
func (nop) Emit(Event)                     {}
func (nop) Add(string, Attrs, float64)     {}
func (nop) Set(string, Attrs, float64)     {}
func (nop) Observe(string, Attrs, float64) {}
func (nop) Wall(string, int64, uint64)     {}

// OrNop returns c, or Nop when c is nil, so callers can hold a
// Collector field unconditionally.
func OrNop(c Collector) Collector {
	if c == nil {
		return Nop
	}
	return c
}

// MachineLabel is the label key ForMachine stamps onto metric series.
const MachineLabel = "machine"

// ForMachine wraps c so every event carries the machine's fleet index
// and every metric series a machine label — the per-machine view a
// fleet hands each of its drivers. It returns Nop when c is nil or
// disabled, so wrapping costs nothing on untraced runs.
func ForMachine(c Collector, machine int) Collector {
	c = OrNop(c)
	if !c.Enabled() {
		return Nop
	}
	return &machineCollector{sink: c, machine: machine, label: strconv.Itoa(machine)}
}

type machineCollector struct {
	sink    Collector
	machine int
	label   string
}

func (m *machineCollector) Enabled() bool { return true }
func (m *machineCollector) Emit(e Event) {
	e.Machine = m.machine
	m.sink.Emit(e)
}
func (m *machineCollector) Add(name string, labels Attrs, v float64) {
	m.sink.Add(name, labels.with(MachineLabel, m.label), v)
}
func (m *machineCollector) Set(name string, labels Attrs, v float64) {
	m.sink.Set(name, labels.with(MachineLabel, m.label), v)
}
func (m *machineCollector) Observe(name string, labels Attrs, v float64) {
	m.sink.Observe(name, labels.with(MachineLabel, m.label), v)
}
func (m *machineCollector) Wall(phase string, wallNs int64, allocBytes uint64) {
	m.sink.Wall(phase, wallNs, allocBytes)
}

// A Scope stamps slice context onto unstamped events: the harness
// driver positions it at each slice start, and every Mark (or any
// event with T < 0 / Slice < 0) emitted through it — including by the
// scheduler the driver hands it to — inherits the slice's start time
// and index. Metrics and wall samples pass through unchanged. A Scope
// must only be used from the goroutine stepping its driver, the same
// single-writer rule the fleet's parallel section already follows.
type Scope struct {
	sink  Collector
	t     float64
	slice int
}

// NewScope wraps sink in an unpositioned scope.
func NewScope(sink Collector) *Scope {
	return &Scope{sink: OrNop(sink), slice: -1}
}

// SetContext positions the scope at a slice start.
func (s *Scope) SetContext(t float64, slice int) { s.t, s.slice = t, slice }

// Enabled implements Collector.
func (s *Scope) Enabled() bool { return s.sink.Enabled() }

// Emit implements Collector, stamping unset context fields.
func (s *Scope) Emit(e Event) {
	if e.T < 0 {
		e.T = s.t
	}
	if e.Slice < 0 {
		e.Slice = s.slice
	}
	s.sink.Emit(e)
}

// Add implements Collector.
func (s *Scope) Add(name string, labels Attrs, v float64) { s.sink.Add(name, labels, v) }

// Set implements Collector.
func (s *Scope) Set(name string, labels Attrs, v float64) { s.sink.Set(name, labels, v) }

// Observe implements Collector.
func (s *Scope) Observe(name string, labels Attrs, v float64) { s.sink.Observe(name, labels, v) }

// Wall implements Collector.
func (s *Scope) Wall(phase string, wallNs int64, allocBytes uint64) {
	s.sink.Wall(phase, wallNs, allocBytes)
}
