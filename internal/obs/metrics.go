package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MetricKind is a series' type.
type MetricKind byte

const (
	// Counter accumulates via Add.
	Counter MetricKind = iota
	// Gauge holds the last Set value.
	Gauge
	// Histogram buckets Observe samples.
	Histogram
)

// String returns the snapshot/exposition encoding of the kind.
func (k MetricKind) String() string {
	switch k {
	case Gauge:
		return "gauge"
	case Histogram:
		return "histogram"
	}
	return "counter"
}

// bucketBounds are the upper bounds of every histogram's buckets: a
// 1-2-5 ladder wide enough for both millisecond latencies and small
// counts.
var bucketBounds = []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// series is one (name, label set) accumulator.
type series struct {
	name   string
	labels Attrs // key-sorted
	kind   MetricKind

	value   float64  // counter / gauge
	count   uint64   // histogram
	sum     float64  // histogram
	buckets []uint64 // histogram; len(bucketBounds)+1, last is +Inf
}

// Registry is the metrics store: counters, gauges and histograms with
// label sets, snapshot-able mid-run. Updates take a mutex — callers
// on disabled paths never reach it (they hold Nop), and enabled
// callers follow the one-writer-per-series convention that keeps
// series contents deterministic; the mutex only protects the map.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

// newRegistry builds an empty registry.
func newRegistry() *Registry {
	return &Registry{series: map[string]*series{}}
}

// seriesKey renders the canonical identity of (name, labels).
func seriesKey(name string, labels Attrs) string {
	if labels.Len() == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for i := 0; i < labels.Len(); i++ {
		a := labels.At(i)
		b.WriteByte('\x00')
		b.WriteString(a.Key)
		b.WriteByte('\x01')
		b.WriteString(a.Val)
	}
	return b.String()
}

// get returns the series, creating it with the requested kind. A kind
// mismatch on an existing series returns nil (the update is dropped):
// telemetry must never panic the run it observes, and the obsclean'd
// codebase uses the fixed name taxonomy, making mismatches a test
// failure rather than a runtime hazard.
func (r *Registry) get(name string, labels Attrs, kind MetricKind) *series {
	labels = labels.sorted()
	key := seriesKey(name, labels)
	s, ok := r.series[key]
	if !ok {
		s = &series{name: name, labels: labels, kind: kind}
		if kind == Histogram {
			s.buckets = make([]uint64, len(bucketBounds)+1)
		}
		r.series[key] = s
	}
	if s.kind != kind {
		return nil
	}
	return s
}

// add increments a counter.
func (r *Registry) add(name string, labels Attrs, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.get(name, labels, Counter); s != nil {
		s.value += v
	}
}

// set sets a gauge.
func (r *Registry) set(name string, labels Attrs, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.get(name, labels, Gauge); s != nil {
		s.value = v
	}
}

// observe records a histogram sample.
func (r *Registry) observe(name string, labels Attrs, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(name, labels, Histogram)
	if s == nil {
		return
	}
	s.count++
	s.sum += v
	i := sort.SearchFloat64s(bucketBounds, v) // first bound >= v
	s.buckets[i]++
}

// BucketCount is one cumulative histogram bucket in a snapshot; LE is
// the upper bound rendered as a Prometheus float ("+Inf" for the
// overflow bucket) so the snapshot stays valid JSON.
type BucketCount struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// SeriesSnapshot is one series in a sorted snapshot.
type SeriesSnapshot struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Kind    string            `json:"kind"`
	Value   float64           `json:"value"`
	Count   uint64            `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Buckets []BucketCount     `json:"buckets,omitempty"`
}

// formatFloat renders v the way both exports encode sample values.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Snapshot returns every series, sorted by name then label set, with
// histogram buckets made cumulative — a stable, export-ready view.
func (r *Registry) Snapshot() []SeriesSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.series))
	for k := range r.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]SeriesSnapshot, 0, len(keys))
	for _, k := range keys {
		s := r.series[k]
		snap := SeriesSnapshot{Name: s.name, Kind: s.kind.String()}
		if s.labels.Len() > 0 {
			snap.Labels = make(map[string]string, s.labels.Len())
			for i := 0; i < s.labels.Len(); i++ {
				a := s.labels.At(i)
				snap.Labels[a.Key] = a.Val
			}
		}
		switch s.kind {
		case Histogram:
			snap.Count = s.count
			snap.Sum = s.sum
			cum := uint64(0)
			for i, n := range s.buckets {
				cum += n
				le := "+Inf"
				if i < len(bucketBounds) {
					le = formatFloat(bucketBounds[i])
				}
				snap.Buckets = append(snap.Buckets, BucketCount{LE: le, Count: cum})
			}
		default:
			snap.Value = s.value
		}
		out = append(out, snap)
	}
	return out
}

// promLabels renders a label set for exposition, with an optional
// extra le pair appended (histogram buckets).
func promLabels(labels Attrs, le string) string {
	if labels.Len() == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < labels.Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		a := labels.At(i)
		fmt.Fprintf(&b, "%s=%q", a.Key, a.Val)
	}
	if le != "" {
		if labels.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "le=%q", le)
	}
	b.WriteByte('}')
	return b.String()
}

// writePrometheus writes the registry in the Prometheus text
// exposition format, series sorted by name then label set, one
// # TYPE line per metric family.
func (r *Registry) writePrometheus(w io.Writer) error {
	r.mu.Lock()
	keys := make([]string, 0, len(r.series))
	for k := range r.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make([]*series, len(keys))
	for i, k := range keys {
		ordered[i] = r.series[k]
	}
	r.mu.Unlock()

	var b strings.Builder
	lastFamily := ""
	for _, s := range ordered {
		if s.name != lastFamily {
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, s.kind)
			lastFamily = s.name
		}
		switch s.kind {
		case Histogram:
			cum := uint64(0)
			for i, n := range s.buckets {
				cum += n
				le := "+Inf"
				if i < len(bucketBounds) {
					le = formatFloat(bucketBounds[i])
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name, promLabels(s.labels, le), cum)
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", s.name, promLabels(s.labels, ""), formatFloat(s.sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", s.name, promLabels(s.labels, ""), s.count)
		default:
			fmt.Fprintf(&b, "%s%s %s\n", s.name, promLabels(s.labels, ""), formatFloat(s.value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// EncodeReport marshals v as the repository's canonical report JSON:
// two-space indent plus a trailing newline — the exact bytes every
// seeded BENCH_*.json report uses, so byte-regression tests compare
// one encoding.
func EncodeReport(v any) ([]byte, error) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
