package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Summary is `cuttlesys trace`'s digest of a trace: per-phase simulated-time
// breakdown, the longest spans, and the QoS-violation timeline. Built
// purely from trace events, it inherits their determinism, so the
// seeded BENCH_obs.json report is byte-regression-testable.
type Summary struct {
	Events   int `json:"events"`
	Spans    int `json:"spans"`
	Instants int `json:"instants"`
	// Machines counts distinct machine indices (the cluster scope
	// included, when fleet events are present).
	Machines int `json:"machines"`
	// SimSpanSec is the simulated interval the trace covers: from the
	// earliest event to the latest span end.
	SimSpanSec float64 `json:"sim_span_sec"`
	// ModeledOverheadSec sums the decide spans — the modeled scheduler
	// compute charged against slices across all machines.
	ModeledOverheadSec float64        `json:"modeled_overhead_sec"`
	Phases             []PhaseSummary `json:"phases"`
	TopSpans           []SpanSummary  `json:"top_spans"`
	QoSTimeline        []QoSViolation `json:"qos_timeline"`
}

// PhaseSummary aggregates one span name across the trace.
type PhaseSummary struct {
	Name       string  `json:"name"`
	Count      int     `json:"count"`
	SimSec     float64 `json:"sim_sec"`
	MeanSimSec float64 `json:"mean_sim_sec"`
}

// SpanSummary is one of the longest spans in the trace.
type SpanSummary struct {
	Name    string  `json:"name"`
	T       float64 `json:"t"`
	Machine int     `json:"machine"`
	Slice   int     `json:"slice"`
	SimSec  float64 `json:"sim_sec"`
}

// QoSViolation is one qos.violation instant, attrs decoded.
type QoSViolation struct {
	T       float64 `json:"t"`
	Machine int     `json:"machine"`
	Slice   int     `json:"slice"`
	P99Ms   float64 `json:"p99_ms"`
	QoSMs   float64 `json:"qos_ms"`
}

// round9 quantises to nanosecond resolution so accumulated float
// error cannot wobble the report encoding.
func round9(v float64) float64 { return math.Round(v*1e9) / 1e9 }

// attrFloat decodes a float attribute, 0 when absent or malformed.
func attrFloat(a Attrs, key string) float64 {
	for i := 0; i < a.Len(); i++ {
		if kv := a.At(i); kv.Key == key {
			v, err := strconv.ParseFloat(kv.Val, 64)
			if err != nil {
				return 0
			}
			return v
		}
	}
	return 0
}

// Summarize digests events (any order) into a Summary. top bounds
// TopSpans; top <= 0 means 10.
func Summarize(events []Event, top int) *Summary {
	if top <= 0 {
		top = 10
	}
	s := &Summary{
		Phases:      []PhaseSummary{},
		TopSpans:    []SpanSummary{},
		QoSTimeline: []QoSViolation{},
	}
	machines := map[int]bool{}
	phases := map[string]*PhaseSummary{}
	var spans []SpanSummary
	first, last := math.Inf(1), math.Inf(-1)
	for _, e := range events {
		s.Events++
		machines[e.Machine] = true
		if e.T < first {
			first = e.T
		}
		if end := e.end(); end > last {
			last = end
		}
		if e.Kind == InstantEvent {
			s.Instants++
			if e.Name == EventQoSViolation {
				s.QoSTimeline = append(s.QoSTimeline, QoSViolation{
					T: round9(e.T), Machine: e.Machine, Slice: e.Slice,
					P99Ms: attrFloat(e.Attrs, "p99Ms"),
					QoSMs: attrFloat(e.Attrs, "qosMs"),
				})
			}
			continue
		}
		s.Spans++
		ph, ok := phases[e.Name]
		if !ok {
			ph = &PhaseSummary{Name: e.Name}
			phases[e.Name] = ph
		}
		ph.Count++
		ph.SimSec += e.Dur
		if e.Name == SpanDecide {
			s.ModeledOverheadSec += e.Dur
		}
		spans = append(spans, SpanSummary{
			Name: e.Name, T: round9(e.T), Machine: e.Machine,
			Slice: e.Slice, SimSec: round9(e.Dur),
		})
	}
	s.Machines = len(machines)
	if s.Events > 0 {
		s.SimSpanSec = round9(last - first)
	}
	s.ModeledOverheadSec = round9(s.ModeledOverheadSec)

	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ph := phases[name]
		ph.SimSec = round9(ph.SimSec)
		ph.MeanSimSec = round9(ph.SimSec / float64(ph.Count))
		s.Phases = append(s.Phases, *ph)
	}
	sort.Slice(s.Phases, func(i, j int) bool {
		a, b := s.Phases[i], s.Phases[j]
		if a.SimSec != b.SimSec {
			return a.SimSec > b.SimSec
		}
		return a.Name < b.Name
	})

	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.SimSec != b.SimSec {
			return a.SimSec > b.SimSec
		}
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.Name < b.Name
	})
	if len(spans) > top {
		spans = spans[:top]
	}
	s.TopSpans = append(s.TopSpans, spans...)

	sort.Slice(s.QoSTimeline, func(i, j int) bool {
		a, b := s.QoSTimeline[i], s.QoSTimeline[j]
		if a.T != b.T {
			return a.T < b.T
		}
		return a.Machine < b.Machine
	})
	return s
}

// WriteText renders the summary for humans: per-phase breakdown, top
// spans, and the QoS-violation timeline.
func (s *Summary) WriteText(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"trace: %d events (%d spans, %d instants) · %d machines · %.3fs simulated · %.4fs modeled scheduler overhead\n",
		s.Events, s.Spans, s.Instants, s.Machines, s.SimSpanSec, s.ModeledOverheadSec)
	if err != nil {
		return err
	}
	if len(s.Phases) > 0 {
		if _, err = fmt.Fprintf(w, "\nper-phase simulated time:\n"); err != nil {
			return err
		}
		for _, ph := range s.Phases {
			_, err = fmt.Fprintf(w, "  %-16s %6d× %10.4fs total %10.6fs mean\n",
				ph.Name, ph.Count, ph.SimSec, ph.MeanSimSec)
			if err != nil {
				return err
			}
		}
	}
	if len(s.TopSpans) > 0 {
		if _, err = fmt.Fprintf(w, "\ntop spans:\n"); err != nil {
			return err
		}
		for _, sp := range s.TopSpans {
			_, err = fmt.Fprintf(w, "  t=%8.3fs m=%2d slice=%3d %-16s %.6fs\n",
				sp.T, sp.Machine, sp.Slice, sp.Name, sp.SimSec)
			if err != nil {
				return err
			}
		}
	}
	if _, err = fmt.Fprintf(w, "\nqos violations: %d\n", len(s.QoSTimeline)); err != nil {
		return err
	}
	for _, v := range s.QoSTimeline {
		_, err = fmt.Fprintf(w, "  t=%8.3fs m=%2d slice=%3d p99=%.2fms qos=%.2fms\n",
			v.T, v.Machine, v.Slice, v.P99Ms, v.QoSMs)
		if err != nil {
			return err
		}
	}
	return nil
}
