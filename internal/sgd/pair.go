// Lane reconstruction: independent SGD problems trained in lockstep,
// one per SIMD lane.
//
// The four reconstruction surfaces (throughput, power, latency,
// service-rate) are trained every decision quantum with identical
// hyperparameters over matrices of the same width (the 108 resource
// configurations). Each SGD update chain is serially dependent —
// entry t+1 reads the factors entry t wrote — so a single surface
// cannot be vectorised without changing its result. *Different*
// surfaces, however, share no state at all: packing one surface per
// lane of a vector register runs all their update chains at once.
// Packed IEEE-754 arithmetic is element-wise exact, so each lane
// computes bit-for-bit what its own serial sweep would have, and the
// result is byte-identical to independent Reconstruct calls.
//
// The surfaces come in pairs (throughput/power, latency/service-rate),
// and the runtime writes both matrices of a pair at the same cells, so
// a pair's lanes can share an instruction stream over their longest
// common prefix (lanePrefix) — the training rows and the running rows
// alike. A pair fills only a quarter of a 512-bit register, so the
// kernel puts *different* cells of the pair side by side: an entry
// (i, j) reads and writes only row i's and column j's state, so any
// order that keeps each row's entries and each column's entries in
// their serial order produces the serial sweep's bits, and schedule
// packs a pair's prefix four independent cells to a slot in such an
// order. There are two paths, chosen by the CPU probe alone:
//
//   - AVX-512: the two pairs are independent problems, so they train
//     concurrently on two-lane blocks of their own, each sweeping its
//     whole common prefix in the wide kernel (four cells per slot).
//     The wide kernel keeps a slot's four columns in registers, a
//     column window: in the dense wavefront the schedule forms, each
//     row one column behind the row above, a slot's columns are the
//     previous slot's moved up one part, so one column retires to
//     memory and one enters per slot instead of all four making the
//     round trip. Where the pattern breaks the window is stored back
//     and gathered afresh; the arithmetic is the same either way.
//   - Otherwise (no AVX-512, off amd64, or the noasm tag): each
//     surface trains in Go.
//
// Whatever follows the prefix in a lane trains in scalar Go after the
// kernel, in the same row-major order, against the same interleaved
// state.
package sgd

import (
	"math"

	"cuttlesys/internal/cpuid"
	"cuttlesys/internal/par"
)

// laneArgs is the wide kernel's argument block; pair_amd64.s reads it
// through the field offsets go_asm.h defines.
type laneArgs struct {
	// row and column block bases, and the pair's interleaved values,
	// entry t's two at byte 16t.
	row, col, vals *float64
	// per slot, the uint16 block indices of its four cells' rows, then
	// of their columns, then the indices of their entries.
	slots *uint16
	n     int64 // slots
	// The pair's two per-lane constants, which the kernel broadcasts to
	// all four parts of a register.
	mu, eta, lam [2]float64
}

// wideCells is the wide kernel's cells per slot: four two-lane cells
// fill a 512-bit register.
const wideCells = 4

// laneKernelOK selects the wide kernel: it needs AVX-512F, and the CPU
// probe reports none off amd64 or under the noasm tag, where the lanes
// train per surface.
var laneKernelOK = cpuid.AVX512

// pairFactors is the kernel's fixed latent rank: the assembly unrolls
// exactly six factor updates per entry, matching the runtime's
// Factors=6 default.
const pairFactors = 6

// blockLen is the length in float64s of one interleaved row or column
// block w lanes wide with rank f: f factor elements then the bias
// element, lane L's float64 of element e at index we+L. Rows and
// columns keep factors and bias in one block so the kernel reaches
// both through a single pointer. Every lane's model state lives in
// such blocks from init to render: a pair that shares the wide kernel
// in two-lane blocks, a lane that trains alone in one-lane blocks.
func blockLen(w, f int) int { return w * (f + 1) }

// ReconstructQuad reconstructs the surfaces of one decision — up to
// four independent observation matrices, nil for an absent one —
// training them in SIMD lanes as far as they qualify (see lanePrefix).
// Results are bit-identical to calling Reconstruct on each matrix
// separately, whether or not a kernel ran. With capture the
// trained factor sets come back too; untrained (cold) models yield nil
// factors.
func ReconstructQuad(ms [4]*Matrix, ps [4]Params, capture bool) (preds [4]*Prediction, facs [4]*Factors) {
	p, f := reconstructLanes(ms[:], ps[:], capture)
	copy(preds[:], p)
	copy(facs[:], f)
	return preds, facs
}

// ReconstructPair is the two-lane case of ReconstructQuad.
func ReconstructPair(a, b *Matrix, pa, pb Params) (*Prediction, *Prediction) {
	p, _ := reconstructLanes([]*Matrix{a, b}, []Params{pa, pb}, false)
	return p[0], p[1]
}

// ReconstructPairFactors is ReconstructPair with factor capture.
func ReconstructPairFactors(a, b *Matrix, pa, pb Params) (*Prediction, *Prediction, *Factors, *Factors) {
	p, f := reconstructLanes([]*Matrix{a, b}, []Params{pa, pb}, true)
	return p[0], p[1], f[0], f[1]
}

// reconstructLanes runs the lanes' reconstructions around one shared
// sweep; every lane's parameters must pass Validate, absent lanes'
// too. The gathers, the seeds (the SVDs) and the dense renders are
// independent per lane and run concurrently through par.For, each lane
// writing only its own elements; so do the groups' trainings. Absent
// lanes are skipped.
func reconstructLanes(ms []*Matrix, ps []Params, capture bool) ([]*Prediction, []*Factors) {
	// A bad parameter set panics here, on the caller's goroutine, not
	// inside the fan-out.
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			panic(err)
		}
	}
	st := gatherLanes(ms, ps)
	groups := laneGroups(st)
	par.For(len(st), 0, func(_, l int) {
		if st[l] != nil {
			st[l].init()
		}
	})
	par.For(len(groups), 0, func(_, g int) { groups[g].train() })
	preds := make([]*Prediction, len(ms))
	facs := make([]*Factors, len(ms))
	par.For(len(st), 0, func(_, l int) {
		if st[l] != nil {
			preds[l], facs[l] = st[l].finish(capture)
		}
	})
	return preds, facs
}

// gatherLanes gathers each present lane's observations. The two lanes
// of a pair (0–1, 2–3) share one value array, interleaved: the wide
// kernel loads a cell's two lane values as one 16-byte pair. Each
// lane's stretch ends in its μ, both at the same index past the longer
// lane's entries (see pad).
func gatherLanes(ms []*Matrix, ps []Params) []*trainState {
	vals := make([][]float64, len(ms))
	for l := 0; l+1 < len(ms); l += 2 {
		if a, b := ms[l], ms[l+1]; a != nil && b != nil {
			n := max(a.knownCount(), b.knownCount())
			buf := make([]float64, 2*n+2)
			vals[l], vals[l+1] = buf[:2*n+1], buf[1:]
		}
	}
	st := make([]*trainState, len(ms))
	par.For(len(ms), 0, func(_, l int) {
		if ms[l] != nil {
			st[l] = prepareTraining(ms[l], ps[l].withDefaults(), vals[l], 2)
		}
	})
	return st
}

// laneGroup is lanes that train on one set of blocks: a pair sharing
// an instruction stream over its first n entries in two-lane blocks,
// or one lane alone (n = 0).
type laneGroup struct {
	st         []*trainState
	n          int
	rows       int // row blocks before the spare one
	rowP, colP []float64
}

// laneGroups decides which lanes share blocks and places every lane
// with entries in its group's. Four lanes are two independent pairs,
// which train concurrently on blocks of their own. A pair with a
// common prefix shares blocks; one without trains per surface.
func laneGroups(st []*trainState) []laneGroup {
	if len(st) == 4 {
		return append(laneGroups(st[:2]), laneGroups(st[2:])...)
	}
	if n := lanePrefix(st); n > 0 {
		return []laneGroup{newGroup(st, n)}
	}
	var gs []laneGroup
	for _, s := range st {
		if s != nil && len(s.cells) > 0 {
			s.alone()
			gs = append(gs, laneGroup{st: []*trainState{s}})
		}
	}
	return gs
}

// newGroup places the pair st, whose first n entries coincide, in one
// set of rank-6 two-lane blocks, lane l at offset l. Each side has one
// block more: the zeroed row and column block a padding cell of a slot
// trains against (see slotArgs).
func newGroup(st []*trainState, n int) laneGroup {
	g := laneGroup{st: st, n: n}
	for _, s := range st {
		g.rows = max(g.rows, s.m.Rows)
	}
	blk := blockLen(2, pairFactors)
	g.rowP = make([]float64, (g.rows+1)*blk)
	g.colP = make([]float64, (st[0].m.Cols+1)*blk)
	for l, s := range st {
		s.place(g.rowP[l:], g.colP[l:], 2)
	}
	return g
}

// train runs the group's MaxIter sweeps.
func (g *laneGroup) train() {
	if g.n == 0 {
		g.st[0].trainSerial()
		return
	}
	g.trainShared()
}

// lanePrefix returns how many leading entries of a prepared pair the
// wide kernel may sweep in lockstep, 0 when the pair cannot share a
// stream. The lanes must agree on everything the shared instruction
// stream fixes: column count (the interleaved column blocks), the
// kernel's rank and the sweep count; and their values must interleave
// (gatherLanes). The kernel addresses blocks and entries by uint16
// index, the spare row and column blocks and the μ entry included,
// which bounds both dimensions and the entry count. Within that, the
// prefix runs while both lanes' row-major entry lists name the same
// cell, and stops at the first bias-frozen row: the kernel applies
// factor updates unconditionally.
func lanePrefix(st []*trainState) int {
	if !laneKernelOK {
		return 0
	}
	s0 := st[0]
	n := math.MaxInt
	for _, s := range st {
		// An absent lane is nil; an empty one has f == 0.
		if s == nil || s.f != pairFactors || s.m.Cols != s0.m.Cols || s.vs != 2 {
			return 0
		}
		if s.m.Rows > math.MaxUint16 || s.m.Cols > math.MaxUint16 || s.pad() > math.MaxUint16 {
			return 0
		}
		if s.p.MaxIter != s0.p.MaxIter || s.p.MaxIter <= 0 {
			return 0
		}
		n = min(n, s.live)
	}
	for t := 0; t < n; t++ {
		for _, s := range st[1:] {
			if s.cells[t] != s0.cells[t] {
				return t
			}
		}
	}
	return n
}

// trainShared runs the lockstep sweep over a pair whose first n
// entries coincide: per epoch, the wide kernel covers the prefix, then
// each lane's remaining entries train scalar. All row and column state
// lives interleaved for the whole run, so a prefix ending mid-row
// hands the row on with nothing to copy. The prefix's end is a
// barrier, so each lane's per-epoch update order is trainSerial's up
// to the reordering of independent cells inside a slot (see schedule),
// and every float64 it produces is bit-identical to the serial sweep.
func (g *laneGroup) trainShared() {
	args := g.slotArgs()
	for iter := 0; iter < g.st[0].p.MaxIter; iter++ {
		wideEpoch6(&args)
		for _, s := range g.st {
			s.sweep(g.n, len(s.cells))
		}
	}
}

// slotArgs schedules the pair's first n entries for the wide kernel,
// four cells to a slot. Cell c of a slot fills the register's c-th
// 16-byte part; the kernel reads its two values through its entry
// index from the pair's interleaved array. A cell no entry fills aims
// at the spare last row and column blocks and at the μ entry: that
// cell's error is exactly zero, so the spare blocks stay zero and
// nothing reads them.
func (g *laneGroup) slotArgs() laneArgs {
	a := g.st[0]
	idx := slotIndices(a.cells[:g.n], a.m.Cols, g.rows, a.pad())
	args := laneArgs{
		row: &g.rowP[0], col: &g.colP[0],
		vals: &a.vals[0], slots: &idx[0],
		n: int64(len(idx) / (3 * wideCells)),
	}
	for l, s := range g.st {
		args.mu[l], args.eta[l], args.lam[l] = s.mu, learningRate, s.p.Reg
	}
	return args
}

// slotIndices lays out the schedule of cells, a pair's first entries,
// as the wide kernel reads it. Cells are counted across slots, slot s
// holding cells 4s…4s+3. A slot's indices are its cells' rows, then
// their columns, then their entries: cell c's row index sits at
// idx[at(c)], its column index four further on and its entry index
// eight further on. A cell no entry fills names the spare row and
// column blocks and the μ entry.
func slotIndices(cells []uint32, cols, spareRow, pad int) []uint16 {
	const k = wideCells
	nslots := schedule(cells, cols, nil)
	at := func(c int) int { return c + c/k*2*k }
	idx := make([]uint16, 3*k*nslots)
	for c := range k * nslots {
		idx[at(c)], idx[at(c)+k], idx[at(c)+2*k] = uint16(spareRow), uint16(cols), uint16(pad)
	}
	c := 0 // the next cell to fill
	schedule(cells, cols, func(s, t, i, j int) {
		c = max(c, k*s) // a slot's first entry takes its first cell
		idx[at(c)], idx[at(c)+k], idx[at(c)+2*k] = uint16(i), uint16(j), uint16(t)
		c++
	})
	return idx
}

// schedule packs a row-major run of cells into slots of at most
// wideCells for the wide kernel and returns the slot count. With fill
// non-nil it calls fill(s, t, i, j) for each entry t, cell (i, j), of
// slot s, slot after slot and each slot's entries in row-major order.
// Slot s takes the four earliest entries, in row-major order, whose predecessors inside the
// run — the previous entry of its row and the previous entry of its
// column — sit in earlier slots. No two such entries share a row or a
// column (the later one's predecessor would be the earlier), and every
// row's and column's entries keep their order, which is all the serial
// sweep's bits depend on. Its scratch is a bit per cell of the run's
// rows and an int32 per row and column, not a word per entry, so a
// caller can run it twice — once to size its slots, once to fill them.
func schedule(cells []uint32, cols int, fill func(s, t, i, j int)) int {
	first := int(cells[0]) / cols
	nrows := int(cells[len(cells)-1])/cols - first + 1
	// col is entry t's column, t being row first+r's.
	col := func(t int32, r int) int { return int(cells[t]) - (first+r)*cols }
	// in marks the run's cells column-major: bit j·nrows+r is cell
	// (first+r, j).
	in := make([]uint64, (cols*nrows+63)/64)
	// next[r] is row first+r's next unplaced entry and end[r] its end:
	// an entry is placed once its row's next has moved past it.
	// colNext[j] is the row of column j's earliest unplaced entry,
	// nrows for none: an entry's column predecessors are all placed
	// exactly when that row is its own.
	next := make([]int32, 2*nrows+cols)
	end := next[nrows : 2*nrows]
	colNext := next[2*nrows:]
	next = next[:nrows]
	for j := range colNext {
		colNext[j] = int32(nrows)
	}
	r := nrows - 1
	for t := int32(len(cells) - 1); t >= 0; t-- {
		for col(t, r) < 0 {
			r--
		}
		j := col(t, r)
		next[r], colNext[j] = t, int32(r)
		if end[r] == 0 {
			end[r] = t + 1
		}
		b := j*nrows + r
		in[b/64] |= 1 << (b % 64)
	}
	nslots := 0
	lo := 0 // rows before lo are placed
	for placed := 0; placed < len(cells); nslots++ {
		for next[lo] == end[lo] {
			lo++
		}
		var pick [wideCells]int
		n := 0
		for r := lo; r < nrows && n < wideCells; r++ {
			if t := next[r]; t != end[r] && colNext[col(t, r)] == int32(r) {
				pick[n] = r
				n++
			}
		}
		for _, r := range pick[:n] {
			t := next[r]
			j := col(t, r)
			if fill != nil {
				fill(nslots, int(t), first+r, j)
			}
			next[r]++
			c := r + 1
			for b := j*nrows + c; c < nrows && in[b/64]&(1<<(b%64)) == 0; b++ {
				c++
			}
			colNext[j] = int32(c)
		}
		placed += n
	}
	return nslots
}
