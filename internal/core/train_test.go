package core

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"cuttlesys/internal/cpuid"
	"cuttlesys/internal/sgd"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// TestRuntimesShareTrainingBlocks: two runtimes on one training split
// and LC core count lead their four matrices with the same blocks, the
// cache's, characterised once, and keep their own rows apart. A block
// row is read-only in the matrix and absent from the prediction.
func TestRuntimesShareTrainingBlocks(t *testing.T) {
	a := New(testMachine(t, "xapian", 1), Params{Seed: 1})
	before := trainComputes.Load()
	b := New(testMachine(t, "xapian", 2), Params{Seed: 2})
	if n := trainComputes.Load() - before; n != 0 {
		t.Fatalf("a second runtime on the split ran %d characterisations, want 0", n)
	}
	train := trainingBlocks(SplitSeed, nTrainLC, a.svcs[0].initCores)
	for _, s := range []struct {
		name  string
		a, b  *sgd.Matrix
		block *sgd.Block
		rows  int
	}{
		{"thr", a.thrM, b.thrM, train.thr, NTrainBatch},
		{"pwr", a.pwrM, b.pwrM, train.pwr, NTrainBatch},
		{"lat", a.latM, b.latM, train.lat, nTrainLC},
		{"svc", a.svcM, b.svcM, train.svc, nTrainLC},
	} {
		if blockOf(s.a) != s.block || blockOf(s.b) != s.block {
			t.Fatalf("%s: the runtimes hold blocks of their own", s.name)
		}
		if s.block.Rows != s.rows || s.block.Cols != s.a.Cols {
			t.Fatalf("%s: block of %d×%d, want %d training rows", s.name, s.block.Rows, s.block.Cols, s.rows)
		}
	}
	a.thrM.Observe(batchRow(0), 5, 1.25)
	if b.thrM.Known(batchRow(0), 5) {
		t.Fatal("an observation in one runtime's own rows reached the other's")
	}
	if msg := panicText(func() { a.thrM.Observe(NTrainBatch-1, 0, 1) }); !strings.Contains(msg, "block") {
		t.Fatalf("Observe on a training row: panic %q, want one naming the block", msg)
	}
	thr, _, _, _ := a.reconstructAll()
	if msg := panicText(func() { thr.At(0, 0) }); !strings.Contains(msg, "block") {
		t.Fatalf("Prediction.At on a training row: panic %q, want one naming the block", msg)
	}
}

// TestSharedBlocksConcurrentDecisions: runtimes that lead with the same
// training blocks decide at the same time, each exactly as it decides
// alone — the blocks are read-only, and each runtime's own rows and
// predictions are its own.
func TestSharedBlocksConcurrentDecisions(t *testing.T) {
	lc := mustApp(t, "xapian")
	_, pool := workload.SplitTrainTest(1, 16)
	decide := func(seed uint64) sim.Allocation {
		m := sim.New(sim.Spec{Seed: seed, LC: lc, Batch: workload.Mix(seed, pool, 16), Reconfigurable: true})
		rt := New(m, Params{Seed: seed})
		qps := []float64{0.8 * lc.MaxQPS}
		budget := 0.7 * m.MaxPowerW()
		var profile []sim.PhaseResult
		for _, ph := range rt.ProfilePhasesMulti(qps, budget) {
			profile = append(profile, m.RunMulti(ph.Alloc, ph.Dur, qps))
		}
		alloc, _ := rt.DecideMulti(profile, qps, budget)
		return alloc
	}
	const runtimes = 4
	want := make([]sim.Allocation, runtimes)
	for i := range want {
		want[i] = decide(uint64(i + 1))
	}
	got := make([]sim.Allocation, runtimes)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = decide(uint64(i + 1))
		}(i)
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("runtime %d decided %+v beside the others, %+v alone", i, got[i], want[i])
		}
	}
}

// blockOf returns the block a matrix leads with, read from its
// unexported field: production has no reader of it.
func blockOf(m *sgd.Matrix) *sgd.Block {
	return (*sgd.Block)(reflect.ValueOf(m).Elem().FieldByName("block").UnsafePointer())
}

// panicText runs f and returns what it panicked with, "" if it
// returned normally.
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// decisionAllocBound bounds the bytes one DecideMulti allocates on
// BenchmarkDecisionQuantum's machine (xapian and 16 batch jobs, seed 1,
// its first profile), per lane path. A decision measures ≈ 192 KB on
// the AVX-512 path and ≈ 170 KB on the Go path: the reconstruction
// ≈ 177 and ≈ 153 KB — predictions of the matrices' 35 own rows (16
// throughput, 17 power, one latency and one service-time row: 30 KB,
// one array that the SVD seeds also use as scratch),
// entry lists at 4 bytes an entry (≈ 24.5 KB, 6 114 entries, 6 048 of
// them the training blocks'), the pairs' interleaved values (≈ 49 KB),
// the lane blocks (≈ 30 KB), the Jacobi rotations and, on the AVX-512
// path, the wide kernel's slots (≈ 19 KB) — and ≈ 15 KB of scan, search
// and choice. The bound is about 10 % over that. Rendering the 56
// training rows again would add 56 × 108 × 8 B = 47.25 KB and cross
// it on either path.
var decisionAllocBound = map[bool]uint64{true: 211 << 10, false: 187 << 10}

// TestDecisionAllocatesOnlyOwnRows gates the bytes of one warm
// DecideMulti, the least of three with the collector off. It skips
// under -race: the race build is ~15x slower and exists to check the
// fan-out's concurrency, which the plain and noasm builds' gate does
// not need repeated (it measures the same bytes there).
func TestDecisionAllocatesOnlyOwnRows(t *testing.T) {
	if raceEnabled {
		t.Skip("a byte gate; the race build checks concurrency")
	}
	lc := mustApp(t, "xapian")
	_, pool := workload.SplitTrainTest(1, 16)
	m := sim.New(sim.Spec{Seed: 1, LC: lc, Batch: workload.Mix(1, pool, 16), Reconfigurable: true})
	rt := New(m, Params{Seed: 1})
	qps := []float64{0.8 * lc.MaxQPS}
	budget := 0.7 * m.MaxPowerW()
	var profile []sim.PhaseResult
	for _, ph := range rt.ProfilePhasesMulti(qps, budget) {
		profile = append(profile, m.RunMulti(ph.Alloc, ph.Dur, qps))
	}
	rt.DecideMulti(profile, qps, budget) // the score tables and seed buffers reach their size
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt.DecideMulti(profile, qps, budget)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	bound := decisionAllocBound[cpuid.AVX512]
	t.Logf("%d bytes per decision (AVX-512 %v)", least, cpuid.AVX512)
	if least > bound {
		t.Fatalf("one decision allocates %d bytes, bound %d", least, bound)
	}
}
