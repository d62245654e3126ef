package qsim

import (
	"container/heap"
	"math"
	"sort"
	"testing"

	"cuttlesys/internal/rng"
)

// boxedHeap is the container/heap server set the simulator used to
// keep, kept here as the reference the sorted free-time vector must
// match multiset-for-multiset.
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

// sameMultiset fails unless the vector's k times equal the heap's
// elements as a multiset, bit for bit, and every slot past k, through
// one whole group past the last occupied one, is +Inf.
func sameMultiset(t *testing.T, op string, got *freeTimes, want boxedHeap) {
	t.Helper()
	w := append([]float64(nil), want...)
	sort.Float64s(w)
	if got.k != len(w) {
		t.Fatalf("%s: %d servers, heap has %d", op, got.k, len(w))
	}
	for i, v := range got.times() {
		if math.Float64bits(v) != math.Float64bits(w[i]) {
			t.Fatalf("%s: sorted slot %d = %v, heap's sorted elements %v", op, i, got.times(), w)
		}
	}
	for i := got.k; i < len(got.v); i++ {
		if !math.IsInf(got.v[i], 1) {
			t.Fatalf("%s: padding slot %d = %v, want +Inf", op, i, got.v[i])
		}
	}
	if len(got.v) < 4*got.groups()+4 {
		t.Fatalf("%s: %d slots for %d groups, want a whole +Inf group past them", op, len(got.v), got.groups())
	}
}

// eachKernel runs fn with the assembly kernels, where the CPU has
// them, and again with the Go paths forced.
func eachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	saved := useAVX
	defer func() { useAVX = saved }()
	for _, asm := range []bool{true, false} {
		if asm && !saved {
			continue
		}
		name := "go"
		if asm {
			name = "asm"
		}
		useAVX = asm
		t.Run(name, fn)
	}
}

// TestFreeHeapMatchesContainerHeap drives the sorted free-time vector
// and the boxed container/heap reference through an identical
// randomized op stream — init, push, replaceMin, removeLatest — and
// demands equal multisets after every operation. Step reads only the
// minimum and replaces it, and SetServers removes the maximum or adds
// the clock, so equal multisets after every step make Step's query
// placement bit-identical to the heap-based simulator's.
func TestFreeHeapMatchesContainerHeap(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		r := rng.New(99)
		for trial := 0; trial < 40; trial++ {
			n := 1 + r.Intn(12)
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = r.Float64() * 10
			}
			direct := newFreeTimes(0)
			for _, v := range vals {
				direct.push(v)
			}
			boxed := append(boxedHeap(nil), vals...)
			heap.Init(&boxed)
			sameMultiset(t, "init", &direct, boxed)

			for op := 0; op < 200; op++ {
				// Repeat values now and then: ties must not matter.
				v := r.Float64() * 10
				if op%7 == 0 {
					v = boxed[r.Intn(len(boxed))]
				}
				switch r.Intn(3) {
				case 0:
					direct.push(v)
					heap.Push(&boxed, v)
				case 1:
					// Step only ever replaces the minimum with a later time.
					v = boxed[0] + v
					if op%7 == 0 {
						v = boxed[len(boxed)-1]
					}
					direct.serve([]float64{v}, []float64{0}, 1) // finish = v
					boxed[0] = v
					heap.Fix(&boxed, 0)
				case 2:
					if direct.k > 1 {
						direct.removeLatest()
						boxed.removeLatest()
					}
				}
				sameMultiset(t, "op", &direct, boxed)
			}
		}
	})
}

// TestServeKernelMatchesGo pins the assembly queue kernel to the Go
// loop on identical chunks — ties among the free times, arrivals
// before and after them, +Inf finishes — at every group count.
func TestServeKernelMatchesGo(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX2+FMA kernels on this CPU")
	}
	defer func() { useAVX = true }()
	r := rng.New(5)
	for k := 1; k <= 40; k++ {
		a := newFreeTimes(k)
		for i := range a.times() {
			a.v[i] = float64(r.Intn(20))
		}
		sort.Float64s(a.times())
		b := freeTimes{k: k, v: append([]float64(nil), a.v...)}
		for trial := 0; trial < 20; trial++ {
			n := 1 + r.Intn(chunk)
			ts, ms := make([]float64, n), make([]float64, n)
			for i := range ts {
				ts[i] = float64(r.Intn(30)) + float64(trial)
				ms[i] = r.Float64() * 3
			}
			if trial == 10 {
				ms[n-1] = math.Inf(1)
			}
			ts2, ms2 := append([]float64(nil), ts...), append([]float64(nil), ms...)
			useAVX = true
			a.serve(ts, ms, 0.7)
			useAVX = false
			b.serve(ts2, ms2, 0.7)
			for i := range a.v {
				if math.Float64bits(a.v[i]) != math.Float64bits(b.v[i]) {
					t.Fatalf("k=%d trial %d: slot %d asm %v, go %v", k, trial, i, a.v, b.v)
				}
			}
			for i := range ms {
				if math.Float64bits(ms[i]) != math.Float64bits(ms2[i]) {
					t.Fatalf("k=%d trial %d: sojourn %d asm %v, go %v", k, trial, i, ms[i], ms2[i])
				}
			}
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
