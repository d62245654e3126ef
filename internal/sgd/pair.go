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
// lane of a VEX register runs all their update chains at once. Packed
// IEEE-754 arithmetic is element-wise exact, so each lane computes
// bit-for-bit what its own serial sweep would have, and the result is
// byte-identical to independent Reconstruct calls.
//
// Lanes can share an instruction stream only while they visit the same
// cell. That one rule (lanePrefix) is applied at width four, then two,
// then one: the 256-bit quad kernel sweeps the longest common prefix of
// all four row-major entry sequences — the offline training rows every
// surface has in full — then each pair (throughput/power,
// latency/service-rate) continues on its own longer common prefix,
// which, because the runtime writes both matrices of a pair at the
// same cells, reaches through the running rows too. A pair fills only
// half a 256-bit register, so the dual kernel puts two *different*
// cells of the pair side by side: an entry (i, j) reads and writes
// only row i's and column j's state, so any order that keeps each
// row's entries and each column's entries in their serial order
// produces the serial sweep's bits, and dualSchedule packs the pair's
// region two independent cells to a slot in such an order. Whatever
// follows in a lane trains in scalar Go after the kernels, in the same
// row-major order, against the same interleaved state.
package sgd

import (
	"math"

	"cuttlesys/internal/par"
)

// laneArgs is the argument block for the assembly kernels. Field
// offsets are hard-coded in pair_amd64.s — do not reorder.
type laneArgs struct {
	row, col, vals *float64 // row and column block bases, the run's values
	// quad: per entry, the byte offset of its column block; dual: per
	// slot, the uint16 block indices of A's and B's rows (low word, then
	// high) and then of their columns.
	offs   *uint32
	rowPtr *int32 // quad: CSR row starts into offs/vals; n+1 of them
	n      int64  // quad: rows; dual: slots
	// Per-lane constants; dual: the pair's two, then the same two again
	// for the register's high half.
	mu, eta, lam [laneCount]float64
}

// laneCount is the number of lanes a block interleaves: the four
// float64s of a 256-bit register.
const laneCount = 4

// pairFactors is the kernels' fixed latent rank: the assembly unrolls
// exactly six factor updates per entry, matching the runtime's
// Factors=6 default.
const pairFactors = 6

// laneBlock is the length in float64s of one interleaved row or column
// block: six factor quads then the bias quad, element e of lane L at
// index 4e+L. Rows and columns keep factors and bias in one block so
// the kernels reach both through a single pointer. Two-lane training
// uses the same blocks with lanes 2 and 3 idle in memory.
const laneBlock = laneCount * (pairFactors + 1)

// ReconstructQuad reconstructs the surfaces of one decision — up to
// four independent observation matrices, nil for an absent one —
// training them in SIMD lanes as far as they qualify (see lanePrefix).
// Results are bit-identical to calling Reconstruct on each matrix
// separately, whether or not a kernel ran. With capture the
// trained factor sets come back too, the analogue of
// ReconstructFactors: untrained (cold) models yield nil factors
// instead of an error.
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
// too. Initialisation (the SVD seeds) and the dense renders are
// independent per lane and run concurrently through par.For, each lane
// writing only its own pre-sized cell; absent lanes are skipped.
func reconstructLanes(ms []*Matrix, ps []Params, capture bool) ([]*Prediction, []*Factors) {
	// A bad parameter set panics here, on the caller's goroutine, not
	// inside the fan-out.
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			panic(err)
		}
	}
	st := make([]*trainState, len(ms))
	par.For(len(ms), 0, func(_, l int) {
		if ms[l] != nil {
			st[l] = prepareTraining(ms[l], ps[l].withDefaults())
		}
	})
	trainLanes(st)
	preds := make([]*Prediction, len(ms))
	facs := make([]*Factors, len(ms))
	par.For(len(st), 0, func(_, l int) {
		if st[l] != nil {
			preds[l], facs[l] = st[l].finish(capture)
		}
	})
	return preds, facs
}

// trainLanes trains four or two prepared lanes (nil for an absent
// one). Lanes with a common prefix share blocks and an instruction
// stream; four lanes without one are two independent pairs, which
// train concurrently on blocks of their own; two lanes without one
// train per surface.
func trainLanes(st []*trainState) {
	if n := lanePrefix(st); n > 0 {
		trainShared(st, n)
		return
	}
	if len(st) == laneCount {
		par.For(2, 0, func(_, h int) { trainLanes(st[2*h : 2*h+2]) })
		return
	}
	for _, s := range st {
		if s != nil {
			s.trainSerial()
		}
	}
}

// lanePrefix returns how many leading entries of the prepared
// reconstructions a SIMD kernel may sweep in lockstep, 0 when they
// cannot share a stream. The lanes must agree on everything the shared
// instruction stream fixes: column count (the interleaved column
// blocks), the kernels' rank and the sweep count.
// The dual kernel addresses blocks by uint16 index, the spare row and
// column blocks included, which bounds both dimensions.
// Within that, the prefix runs while every lane's row-major entry list
// names the same cell, and stops at the first bias-frozen row: the
// kernels apply factor updates unconditionally.
func lanePrefix(st []*trainState) int {
	if !laneKernelOK {
		return 0
	}
	s0 := st[0]
	for _, s := range st {
		// An absent lane is nil; an empty one was never initialised
		// and has f == 0.
		if s == nil || s.f != pairFactors || s.m.Cols != s0.m.Cols {
			return 0
		}
		if s.m.Rows > math.MaxUint16 || s.m.Cols > math.MaxUint16 {
			return 0
		}
		if s.p.MaxIter != s0.p.MaxIter || s.p.MaxIter <= 0 {
			return 0
		}
	}
	for n := 0; ; n++ {
		for _, s := range st {
			if n == len(s.entries) {
				return n
			}
			e, e0 := s.entries[n], s0.entries[n]
			if e.i != e0.i || e.j != e0.j || s.biasOnly[e.i] {
				return n
			}
		}
	}
}

// trainShared runs the lockstep sweep over lanes whose first n entries
// coincide: per epoch, of four lanes the quad kernel covers the n-entry
// common prefix and each pair then rides the dual kernel to the end of
// its own common prefix; of two lanes the dual kernel covers the
// prefix; then each lane's remaining entries train scalar. All row and
// column state lives interleaved for the whole run, so a region ending
// mid-row hands the row on with nothing to copy. Region boundaries are
// barriers, so each lane's per-epoch update order is trainSerial's up
// to the reordering of independent cells inside a dual region (see
// dualSchedule), and every float64 it produces is bit-identical to the
// serial sweep.
func trainShared(st []*trainState, n int) {
	rows := 0
	for _, s := range st {
		rows = max(rows, s.m.Rows)
	}
	// One more block each side: the zeroed row and column block an
	// unpaired slot's idle half trains against (see newDualRun).
	rowP := make([]float64, (rows+1)*laneBlock)
	colP := make([]float64, (st[0].m.Cols+1)*laneBlock)
	for l, s := range st {
		packLane(rowP, l, s.q, s.rowBias)
		packLane(colP, l, s.pc, s.colBias)
	}

	var runs []laneRun
	var tail [laneCount]int // per lane: where its scalar tail starts
	if len(st) == laneCount {
		runs = append(runs, newQuadRun(st, n, rowP, colP))
		for l := 0; l < laneCount; l += 2 {
			tail[l], tail[l+1] = n, n
			if np := lanePrefix(st[l : l+2]); np > n {
				runs = append(runs, newDualRun(st[l:l+2], l, n, np, rowP, colP))
				tail[l], tail[l+1] = np, np
			}
		}
	} else {
		runs = append(runs, newDualRun(st, 0, 0, n, rowP, colP))
		tail[0], tail[1] = n, n
	}

	for iter := 0; iter < st[0].p.MaxIter; iter++ {
		for i := range runs {
			runs[i].epoch()
		}
		for l, s := range st {
			laneTailEpoch(s.entries[tail[l]:], l, s, rowP, colP)
		}
	}

	for l, s := range st {
		unpackLane(rowP, l, s.q, s.rowBias)
		unpackLane(colP, l, s.pc, s.colBias)
	}
}

// laneRun is one kernel's share of an epoch: the quad kernel's run of
// consecutive entries common to all four lanes, or one pair's
// scheduled region for the dual kernel.
type laneRun struct {
	args laneArgs
	quad bool
}

func (r *laneRun) epoch() {
	if r.quad {
		quadEpoch6(&r.args)
	} else {
		dualEpoch6(&r.args)
	}
}

// newQuadRun lays out the first n entries of four lanes in CSR form:
// row starts, and per entry the column block's byte offset and the
// lanes' values. The run may end mid-row; rowPtr counts only its own
// entries.
func newQuadRun(st []*trainState, n int, rowP, colP []float64) laneRun {
	ents := st[0].entries[:n]
	first := int(ents[0].i)
	nrows := int(ents[n-1].i) - first + 1
	rowPtr := make([]int32, nrows+1)
	offs := make([]uint32, n)
	vals := make([]float64, laneCount*n)
	for t, e := range ents {
		rowPtr[int(e.i)-first+1]++
		offs[t] = uint32(int(e.j) * laneBlock * 8)
		for l, s := range st {
			vals[laneCount*t+l] = s.entries[t].v
		}
	}
	for r := 0; r < nrows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	run := laneRun{quad: true, args: laneArgs{
		row: &rowP[first*laneBlock], col: &colP[0],
		vals: &vals[0], offs: &offs[0], rowPtr: &rowPtr[0],
		n: int64(nrows),
	}}
	for l, s := range st {
		run.args.mu[l], run.args.eta[l], run.args.lam[l] = s.mu, learningRate, s.p.Reg
	}
	return run
}

// newDualRun schedules entries [from, to) of the pair st, which
// occupies lanes lane0 and lane0+1 of the blocks, for the dual kernel:
// per slot, entry A in the register's low half and entry B in its high
// half. An unpaired slot aims its B half at the spare last row and
// column blocks, with the values μ: that cell's error is exactly zero,
// so the spare blocks stay zero and nothing reads them.
func newDualRun(st []*trainState, lane0, from, to int, rowP, colP []float64) laneRun {
	rows, cols := len(rowP)/laneBlock-1, len(colP)/laneBlock-1 // the spares
	ents := st[0].entries[from:to]
	slot := make([]int32, len(ents))
	nslots := dualSchedule(ents, cols, slot)
	idx := make([]uint32, 2*nslots)
	vals := make([]float64, 4*nslots)
	for s := 0; s < nslots; s++ {
		idx[2*s], idx[2*s+1] = uint32(rows)<<16|uint32(rows), uint32(cols)<<16|uint32(cols)
		vals[4*s+2], vals[4*s+3] = st[0].mu, st[1].mu
	}
	for t, e := range ents {
		s := int(slot[t])
		// A slot's entries arrive in row-major order: A while its row
		// is still the spare, then B.
		half := 0
		if idx[2*s]&0xffff != uint32(rows) {
			half = 16
		}
		keep := ^uint32(0xffff << half)
		idx[2*s] = idx[2*s]&keep | uint32(e.i)<<half
		idx[2*s+1] = idx[2*s+1]&keep | uint32(e.j)<<half
		for l, ls := range st {
			vals[4*s+half/8+l] = ls.entries[from+t].v
		}
	}
	run := laneRun{args: laneArgs{
		row: &rowP[lane0], col: &colP[lane0],
		vals: &vals[0], offs: &idx[0],
		n: int64(nslots),
	}}
	for l, s := range st {
		for h := 0; h < laneCount; h += 2 {
			run.args.mu[h+l], run.args.eta[h+l], run.args.lam[h+l] = s.mu, learningRate, s.p.Reg
		}
	}
	return run
}

// dualSchedule packs a row-major run of entries into slots of at most
// two for the dual kernel and returns the slot count; on return
// slot[t] is entry t's slot (slot is len(ents) of scratch on entry).
// Slot s takes the two earliest entries, in row-major order, whose
// predecessors inside the run — the previous entry of its row and the
// previous entry of its column — sit in earlier slots. Two such
// entries never share a row or a column (the later one's predecessor
// would be the earlier), and every row's and column's entries keep
// their order, which is all the serial sweep's bits depend on.
func dualSchedule(ents []obs, cols int, slot []int32) int {
	// Until it is placed, slot[t] holds t's column predecessor, -1 for
	// none.
	last := make([]int32, cols)
	for j := range last {
		last[j] = -1
	}
	for t, e := range ents {
		slot[t], last[e.j] = last[e.j], int32(t)
	}
	// next[r] is row first+r's next unplaced entry, end[r] its end: an
	// entry is placed once its row's next has moved past it.
	first := int(ents[0].i)
	nrows := int(ents[len(ents)-1].i) - first + 1
	next := make([]int32, 2*nrows)
	end := next[nrows:]
	next = next[:nrows]
	for t := len(ents) - 1; t >= 0; t-- {
		r := int(ents[t].i) - first
		next[r] = int32(t)
		if end[r] == 0 {
			end[r] = int32(t) + 1
		}
	}
	nslots := 0
	lo := 0 // rows before lo are placed
	for placed := 0; placed < len(ents); nslots++ {
		for next[lo] == end[lo] {
			lo++
		}
		var pick [2]int
		k := 0
		for r := lo; r < nrows && k < 2; r++ {
			t := next[r]
			if t == end[r] {
				continue
			}
			if p := slot[t]; p >= 0 && next[int(ents[p].i)-first] <= p {
				continue
			}
			pick[k] = r
			k++
		}
		for _, r := range pick[:k] {
			slot[next[r]] = int32(nslots)
			next[r]++
		}
		placed += k
	}
	return nslots
}

// packLane copies one lane's factor matrix and bias vector into the
// interleaved blocks; unpackLane copies them back out.
func packLane(blocks []float64, lane int, fac, bias []float64) {
	const f = pairFactors
	for e, b := range bias {
		blk := blocks[e*laneBlock+lane:]
		for k := 0; k < f; k++ {
			blk[laneCount*k] = fac[e*f+k]
		}
		blk[laneCount*f] = b
	}
}

func unpackLane(blocks []float64, lane int, fac, bias []float64) {
	const f = pairFactors
	for e := range bias {
		blk := blocks[e*laneBlock+lane:]
		for k := 0; k < f; k++ {
			fac[e*f+k] = blk[laneCount*k]
		}
		bias[e] = blk[laneCount*f]
	}
}

// laneTailEpoch sweeps one lane's post-kernel entries once against the
// interleaved state. The arithmetic matches trainSerial statement for
// statement — same association, same old-value capture — so the tail
// is bit-identical to the serial sweep too.
func laneTailEpoch(tail []obs, lane int, st *trainState, rowP, colP []float64) {
	const (
		f = pairFactors
		w = laneCount
	)
	eta, lam := learningRate, st.p.Reg
	mu := st.mu
	for _, e := range tail {
		// Fixed-size views: lane's element k of the block at index wk,
		// the bias at wf, bounds-checked once per entry.
		i, j := int(e.i), int(e.j)
		ri := (*[w*f + 1]float64)(rowP[i*laneBlock+lane:])
		cj := (*[w*f + 1]float64)(colP[j*laneBlock+lane:])
		dot := 0.0
		for k := 0; k < f; k++ {
			dot += ri[w*k] * cj[w*k]
		}
		err := e.v - (mu + ri[w*f] + cj[w*f] + dot)
		ri[w*f] += eta * (err - lam*ri[w*f])
		cj[w*f] += eta * (err - lam*cj[w*f])
		if st.biasOnly[i] {
			continue
		}
		for k := 0; k < f; k++ {
			qk, pk := ri[w*k], cj[w*k]
			ri[w*k] += eta * (err*pk - lam*qk)
			cj[w*k] += eta * (err*qk - lam*pk)
		}
	}
}
