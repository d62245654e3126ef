package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestAttrsCapacityAndSort(t *testing.T) {
	a := NoLabels
	for i, k := range []string{"d", "b", "a", "c", "overflow"} {
		a = a.with(k, Itoa(i))
	}
	if a.Len() != maxAttrs {
		t.Fatalf("Len = %d, want %d (overflow dropped)", a.Len(), maxAttrs)
	}
	got := a.sorted()
	want := []string{"a", "b", "c", "d"}
	for i, k := range want {
		if got.At(i).Key != k {
			t.Fatalf("sorted()[%d].Key = %q, want %q", i, got.At(i).Key, k)
		}
	}
	// sorted() must not mutate the receiver (value semantics).
	if a.At(0).Key != "d" {
		t.Fatalf("sorted mutated receiver: At(0).Key = %q", a.At(0).Key)
	}
}

func TestScopeStampsUnsetContext(t *testing.T) {
	r := NewRecorder()
	s := NewScope(r)
	s.SetContext(0.3, 3)
	s.Emit(Mark("x"))                            // both stamped
	s.Emit(Instant("y", 0.35).WithSlice(7))      // neither stamped
	s.Emit(Span("z", 0.31, 0.01).WithMachine(2)) // slice stamped only
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].T != 0.3 || evs[0].Slice != 3 {
		t.Errorf("mark: T=%v slice=%d, want 0.3/3", evs[0].T, evs[0].Slice)
	}
	if evs[2].T != 0.35 || evs[2].Slice != 7 {
		t.Errorf("stamped instant altered: T=%v slice=%d", evs[2].T, evs[2].Slice)
	}
	if evs[1].Slice != 3 || evs[1].Machine != 2 {
		t.Errorf("span: slice=%d machine=%d, want 3/2", evs[1].Slice, evs[1].Machine)
	}
}

func TestForMachineStampsEventsAndLabels(t *testing.T) {
	r := NewRecorder()
	c := ForMachine(r, 5)
	c.Emit(Instant("e", 1))
	c.Add(MetricSlices, NoLabels, 1)
	if ForMachine(Nop, 5) != Nop {
		t.Error("ForMachine(Nop) should collapse to Nop")
	}
	if ForMachine(nil, 5) != Nop {
		t.Error("ForMachine(nil) should collapse to Nop")
	}
	evs := r.Events()
	if evs[0].Machine != 5 {
		t.Errorf("Machine = %d, want 5", evs[0].Machine)
	}
	snap := r.Registry().Snapshot()
	if len(snap) != 1 || snap[0].Labels[MachineLabel] != "5" {
		t.Errorf("machine label not stamped: %+v", snap)
	}
}

func TestRecorderOrdersByTimeMachineSeq(t *testing.T) {
	r := NewRecorder()
	r.Emit(Instant("late", 0.2).WithMachine(0))
	r.Emit(Instant("m1-first", 0.1).WithMachine(1))
	r.Emit(Instant("m0-a", 0.1).WithMachine(0))
	r.Emit(Instant("m0-b", 0.1).WithMachine(0))
	r.Emit(Instant("cluster", 0.1).WithMachine(ClusterMachine))
	names := []string{}
	for _, e := range r.Events() {
		names = append(names, e.Name)
	}
	want := "cluster m0-a m0-b m1-first late"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestRegistryKindMismatchDropped(t *testing.T) {
	r := newRegistry()
	r.add("m", NoLabels, 2)
	r.set("m", NoLabels, 99) // wrong kind: dropped
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 2 || snap[0].Kind != "counter" {
		t.Fatalf("mismatched update not dropped: %+v", snap)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := newRegistry()
	r.observe("h", NoLabels, 0.5) // le="0.5" is inclusive
	r.observe("h", NoLabels, 1)
	r.observe("h", NoLabels, 5)
	r.observe("h", NoLabels, 100)
	r.observe("h", NoLabels, 5000)
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("got %d series", len(snap))
	}
	s := snap[0]
	if s.Count != 5 || s.Sum != 5106.5 {
		t.Fatalf("count=%d sum=%v", s.Count, s.Sum)
	}
	// bucketBounds: 0.5 1 2 5 10 20 50 100 200 500 1000 +Inf.
	wantCum := []uint64{1, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5}
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("got %d buckets, want %d", len(s.Buckets), len(wantCum))
	}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket[%d] (le=%s) = %d, want %d", i, b.LE, b.Count, wantCum[i])
		}
	}
	if s.Buckets[len(wantCum)-1].LE != "+Inf" {
		t.Fatalf("last bucket LE = %q", s.Buckets[len(wantCum)-1].LE)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.Emit(Span(SpanDecide, 0.1, 0.0123).WithMachine(1).WithSlice(1).
		With("sched", "cuttlesys").With("ratio", Float(0.25)))
	r.Emit(Instant(EventQoSViolation, 0.2).WithMachine(0).WithSlice(2).
		With("p99Ms", Float(8.5)))
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := WriteJSONL(&buf2, back); err != nil {
		t.Fatal(err)
	}
	var buf1 bytes.Buffer
	if err := r.WriteJSONL(&buf1); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatalf("round trip changed bytes:\n%s\nvs\n%s", buf1.String(), buf2.String())
	}
}

func TestNopPathZeroAllocations(t *testing.T) {
	c := OrNop(nil)
	attrs := Label("k", "v")
	allocs := testing.AllocsPerRun(100, func() {
		c.Emit(Span(SpanSlice, 0.1, 0.1))
		c.Emit(Mark(EventFallback).With("a", "b"))
		c.Add(MetricSlices, attrs, 1)
		c.Set(MetricPowerW, NoLabels, 80)
		c.Observe(MetricP99Hist, attrs, 7.5)
		ws := BeginWall(c)
		ws.End(c, "phase")
		mc := ForMachine(c, 3)
		mc.Add(MetricSlices, NoLabels, 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled collector allocated %.1f bytes-worth of objects per run, want 0", allocs)
	}
}

func TestUsecRounding(t *testing.T) {
	// 0.1*1e6 in binary floats is 100000.00000000001-ish territory;
	// the exporter must emit clean microsecond values.
	if got := usec(0.1); got != 100000 {
		t.Fatalf("usec(0.1) = %v", got)
	}
	if got := usec(0.30000000000000004); got != 300000 {
		t.Fatalf("usec(0.3+eps) = %v", got)
	}
}
