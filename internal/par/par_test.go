package par

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestFor checks For's contract over the edge widths: every index runs
// exactly once, on worker i mod min(workers, n), no two calls with the
// same w overlap, and the inline case runs in index order without
// allocating. CI runs it under -race at -cpu 1,2,8; it is the
// race test for For's go statement.
func TestFor(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 108} {
		for _, workers := range []int{-1, 0, 1, 2, 8, 200} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				width := workers
				if width <= 0 || width > n {
					width = n
				}
				hits := make([]int, n)
				ws := make([]int, n)
				busy := make([]atomic.Int32, width)
				var overlap atomic.Bool
				var order []int
				For(n, workers, func(w, i int) {
					hits[i]++
					ws[i] = w
					if w < 0 || w >= width {
						return // reported below
					}
					if busy[w].Add(1) != 1 {
						overlap.Store(true)
					}
					if width == 1 {
						order = append(order, i)
					}
					busy[w].Add(-1)
				})
				for i := range hits {
					if hits[i] != 1 {
						t.Errorf("index %d ran %d times, want 1", i, hits[i])
					}
					if ws[i] != i%width {
						t.Errorf("index %d ran on worker %d, want %d (stride %d)", i, ws[i], i%width, width)
					}
				}
				if overlap.Load() {
					t.Error("two calls with the same w overlapped")
				}
				if width > 1 {
					return
				}
				for k, i := range order {
					if i != k {
						t.Fatalf("inline loop ran index %d at step %d, want index order", i, k)
					}
				}
				noop := func(w, i int) {}
				if a := testing.AllocsPerRun(100, func() { For(n, workers, noop) }); a != 0 {
					t.Errorf("inline For allocated %.0f times per call, want 0", a)
				}
			})
		}
	}
}
