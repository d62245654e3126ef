// Package par is the module's one fan-out primitive. Every parallel
// loop outside the DDS engine's persistent executors runs through For,
// and its output is bit-identical at any worker count and any
// GOMAXPROCS because each caller keeps three rules:
//
//   - Independent inputs: iteration i reads only state fixed before
//     For is called (its own seed, staged tables, read-only models), so
//     the order iterations run in cannot change what any of them
//     computes.
//   - Disjoint slots: iteration i writes only slot i of pre-sized
//     output slices, and scratch only through slot w of per-worker
//     state the caller owns, so no two goroutines touch the same
//     element.
//   - Serial reductions: anything that folds results across
//     iterations — errors, bests, merged records — runs after For
//     returns, on the caller, in index order.
//
// The race detector checks the second rule at run time (DESIGN.md §7);
// the GOMAXPROCS 1-vs-8 report byte gate checks all three by their
// result.
package par

import "sync"

// For calls fn(w, i) once for every i in [0, n) and returns after the
// last call has. workers ≤ 0 or workers > n means n workers. With one
// worker, or n ≤ 1, the loop runs inline on the caller in index order,
// with no goroutine and no allocation. Otherwise workers−1 goroutines
// and the caller share the indices by stride: worker w < min(workers,
// n) runs i = w, w+workers, … in order, so calls with the same w never
// overlap and w may index per-worker scratch the caller owns.
//
// The stride is fixed rather than claimed off a shared counter because
// a counter's atomic operations order one worker's calls before the
// next claimant's in the race detector's eyes: on one core, where the
// caller can claim every index before a goroutine runs, a write two
// calls share can go unreported. With a fixed stride the workers share
// no synchronisation until the join, so the detector reports any such
// write at any GOMAXPROCS.
func For(n, workers int, fn func(w, i int)) {
	if workers <= 0 || workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	run := func(w int) {
		for i := w; i < n; i += workers {
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
}
