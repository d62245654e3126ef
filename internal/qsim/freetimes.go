package qsim

import "math"

// freeTimes is the service's per-server next-free times as a sorted
// vector: v[:k] holds the k times in ascending order and every slot
// from v[k] on is +Inf, through one whole 4-lane group past the last
// group that holds a time, so each group's right neighbour group can
// be loaded.
//
// It replaced a binary min-heap. Step reads only the earliest time and
// replaces it, SetServers removes the latest or adds the current
// clock, so the simulator's output depends only on the multiset of
// times, never on how they are laid out: the vector and the heap hold
// equal multisets after every operation and Step's sojourns are
// bit-identical. The vector's replace-min has no data-dependent
// branch, where the heap's sifts branched on the data at every level.
type freeTimes struct {
	k int
	v []float64
}

// groups is the number of 4-lane groups covering v[:k].
func (f *freeTimes) groups() int { return (f.k + 3) / 4 }

// newFreeTimes returns k servers, all free at time zero.
func newFreeTimes(k int) freeTimes {
	f := freeTimes{k: k}
	f.v = make([]float64, 4*f.groups()+4)
	for i := k; i < len(f.v); i++ {
		f.v[i] = math.Inf(1)
	}
	return f
}

// times returns the k next-free times in ascending order.
func (f *freeTimes) times() []float64 { return f.v[:f.k] }

// serve runs the FCFS central queue over a non-empty chunk of
// queries: query i arrives at ts[i] with demand svc·ms[i], starts on
// the server that frees earliest — no earlier than that server frees,
// so the finish time never sorts before the minimum it replaces — and
// on return ms[i] holds its sojourn. The AVX kernel performs the Go
// loop's IEEE operations in the same order.
//
//hot:path once per chunk of simulated queries
func (f *freeTimes) serve(ts, ms []float64, svc float64) {
	if useAVX {
		serveAVX(&f.v[0], f.groups(), &ts[0], &ms[0], len(ts), svc)
		return
	}
	v := f.v[:4*f.groups()+1]
	for i, t := range ts {
		finish := max(t, v[0]) + svc*ms[i]
		replaceMin(v, finish)
		ms[i] = finish - t
	}
}

// replaceMin replaces the minimum v[0] of the sorted vector v with
// x ≥ v[0], keeping v sorted and branch-free. With the old minimum
// dropped, slot i of the result is the smaller of its right neighbour
// and max(x, v[i]): the neighbour where x sorts after it, x at its
// insertion point, v[i] itself before it. Each slot reads only old
// values at or right of itself, so one forward pass rewrites v in
// place; the last slot's neighbour is the +Inf past it. This loop is
// the reference for serveAVX's replace-min and the only one off amd64.
func replaceMin(v []float64, x float64) {
	for i := 0; i < len(v)-1; i++ {
		v[i] = min(v[i+1], max(x, v[i]))
	}
}

// push adds a server free at time x.
func (f *freeTimes) push(x float64) {
	f.k++
	if need := 4*f.groups() + 4; need > len(f.v) {
		f.v = append(f.v, math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1))
	}
	i := f.k - 1
	for ; i > 0 && f.v[i-1] > x; i-- {
		f.v[i] = f.v[i-1]
	}
	f.v[i] = x
}

// removeLatest removes the server that frees last.
func (f *freeTimes) removeLatest() {
	f.k--
	f.v[f.k] = math.Inf(1)
}
