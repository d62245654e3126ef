package qsim

import (
	"container/heap"
	"math"
	"testing"

	"cuttlesys/internal/rng"
)

// boxedHeap is the container/heap implementation freeHeap replaced,
// kept here as the reference the direct float64 heap must match
// state-for-state.
type boxedHeap []float64

func (h boxedHeap) Len() int            { return len(h) }
func (h boxedHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

func (h *boxedHeap) removeLatest() {
	idx := 0
	for i, v := range *h {
		if v > (*h)[idx] {
			idx = i
		}
	}
	heap.Remove(h, idx)
}

func heapsEqual(t *testing.T, op string, got freeHeap, want boxedHeap) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", op, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: slot %d = %v, want %v (heaps %v vs %v)", op, i, got[i], want[i], got, want)
		}
	}
}

// TestFreeHeapMatchesContainerHeap drives the direct heap and the
// boxed reference through an identical randomized op stream — init,
// push, replaceMin, removeLatest — and demands byte-equal layouts
// after every operation. Equal layout after every step implies Step's
// query placement (which reads h[0] and sifts the replacement) is
// bit-identical to the pre-rewrite simulator.
func TestFreeHeapMatchesContainerHeap(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(12)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64() * 10
		}
		direct := append(freeHeap(nil), vals...)
		boxed := append(boxedHeap(nil), vals...)
		direct.init()
		heap.Init(&boxed)
		heapsEqual(t, "init", direct, boxed)

		for op := 0; op < 200; op++ {
			switch r.Intn(3) {
			case 0:
				v := r.Float64() * 10
				direct.push(v)
				heap.Push(&boxed, v)
			case 1:
				v := r.Float64() * 10
				direct.replaceMin(v)
				boxed[0] = v
				heap.Fix(&boxed, 0)
			case 2:
				if len(direct) > 1 {
					direct.removeLatest()
					boxed.removeLatest()
				}
			}
			heapsEqual(t, "op", direct, boxed)
		}
	}
}

// TestStepZeroAllocSteadyState pins that the per-query path (heap
// reads, sifts, arrival draws) no longer allocates; only the returned
// sojourn slice may grow.
func TestStepZeroAllocSteadyState(t *testing.T) {
	s := NewService(7, 8)
	meanSvc := 1e-3
	// Warm up so append capacity stabilizes inside the measured calls'
	// own slices (each call allocates only its result slice).
	s.Step(0.05, 1000, meanSvc, 0.3)
	allocs := testing.AllocsPerRun(50, func() {
		s.SetServers(8)
		s.Advance(0.001)
	})
	if allocs != 0 {
		t.Fatalf("SetServers+Advance allocate %v per run, want 0", allocs)
	}
}

func TestAdvance(t *testing.T) {
	s := NewService(5, 4)
	s.Step(0.1, 500, 1e-3, 0.3)
	before := s.now
	work := backlog(s)
	s.Advance(0.25)
	if got := s.now; got != before+0.25 {
		t.Fatalf("clock = %v after Advance, want %v", got, before+0.25)
	}
	// Advancing offers no arrivals, so the busy horizons are unchanged
	// and backlog can only shrink relative to the new clock.
	if got := backlog(s); got > work {
		t.Fatalf("backlog grew across Advance: %v → %v", work, got)
	}
	// The stream continues deterministically afterwards.
	sj := s.Step(0.1, 500, 1e-3, 0.3)
	if len(sj) == 0 {
		t.Fatal("no arrivals after Advance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(0) did not panic")
		}
	}()
	s.Advance(0)
}
