package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"cuttlesys/internal/stats"
)

// Span names. Every span is recorded by bench code around a call into
// one layer; step is the root that covers one workload step. Scheduler
// spans are named <layer>.decide, <layer>.profile and <layer>.feedback
// with layer core or baseline (see tracedTimer).
const (
	spanStep       = "step"
	spanRoute      = "fleet.route"
	spanArbitrate  = "fleet.arbitrate"
	spanAfterSlice = "modelplane.afterslice"
	spanWarmStart  = "modelplane.warmstart"
	spanProvision  = "ctrlplane.provision"
)

// clusterMachine marks a span that belongs to no single machine.
const clusterMachine = -1

// span is one timed interval at a layer boundary. Start and End are
// host nanoseconds from the tracer's origin; Parent indexes the span
// that was open when this one began (-1 for a root).
type span struct {
	Name    string
	Start   int64
	End     int64
	Parent  int
	Machine int
	Slice   int
}

// tracer keeps spans in memory. The traced run steps machines
// serially, so spans nest strictly and a stack finds each parent.
type tracer struct {
	origin hostTime
	spans  []span
	stack  []int
	slice  int
}

func newTracer() *tracer { return &tracer{origin: now()} }

func (t *tracer) begin(name string, machine int) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Machine: machine, Slice: t.slice,
		Start: since(t.origin).Nanoseconds(),
	})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = since(t.origin).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// spanStats is one span name's totals over a window of the trace.
type spanStats struct {
	count  int
	selfNs int64
	durMs  []float64
}

func (s *spanStats) meanDurMs() float64 {
	if s == nil {
		return 0
	}
	return stats.Mean(s.durMs)
}

// summarize folds the spans whose slice is at least fromSlice into
// per-name statistics. A span's self time is its duration minus the
// part its direct children cover; since every span nests under a step
// root, the self times add up to the total step time exactly.
func (t *tracer) summarize(fromSlice int) (byName map[string]*spanStats, stepNs int64) {
	childNs := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	byName = map[string]*spanStats{}
	for i, s := range t.spans {
		if s.Slice < fromSlice {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanStats{}
			byName[s.Name] = st
		}
		dur := s.End - s.Start
		st.count++
		st.selfNs += dur - childNs[i]
		st.durMs = append(st.durMs, float64(dur)/1e6)
		if s.Parent < 0 {
			stepNs += dur
		}
	}
	return byName, stepNs
}

// chromeEvent is one complete event of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as a Chrome trace_event file: one
// thread per machine, thread 0 for cluster-level spans.
func (t *tracer) writeChrome(path, workload string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	if _, err := fmt.Fprintf(w, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":%q},\"traceEvents\":[\n", workload); err != nil {
		return err
	}
	for i, s := range t.spans {
		buf, err := json.Marshal(chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Machine + 1,
			Args: map[string]int{"slice": s.Slice, "parent": s.Parent, "id": i},
		})
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(t.spans)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(buf, sep...)); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		return err
	}
	return w.Flush()
}
