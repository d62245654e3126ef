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
// cell. That one rule (lanePrefix) decides which kernel sweeps what. A
// pair (throughput/power, latency/service-rate) fills only half a
// 256-bit register, so the slot kernels put *different* cells of the
// pair side by side: an entry (i, j) reads and writes only row i's and
// column j's state, so any order that keeps each row's entries and
// each column's entries in their serial order produces the serial
// sweep's bits, and schedule packs a pair's region k independent cells
// to a slot in such an order. There are two paths, chosen by the CPU
// alone:
//
//   - AVX: the 256-bit quad kernel sweeps the longest common prefix of
//     all four row-major entry sequences — the offline training rows
//     every surface has in full — then each pair continues on its own
//     longer common prefix, which, because the runtime writes both
//     matrices of a pair at the same cells, reaches through the running
//     rows too, in the dual kernel (two cells per slot).
//   - AVX-512: the two pairs are independent problems, so they train
//     concurrently on blocks of their own, each sweeping its whole
//     common prefix in the 512-bit wide kernel (four cells per slot).
//
// Whatever follows in a lane trains in scalar Go after the kernels, in
// the same row-major order, against the same interleaved state.
package sgd

import (
	"math"

	"cuttlesys/internal/cpuid"
	"cuttlesys/internal/par"
)

// laneArgs is the argument block for the assembly kernels. Field
// offsets are hard-coded in pair_amd64.s — do not reorder.
type laneArgs struct {
	row, col, vals *float64 // row and column block bases, the run's values
	offs           *uint32  // quad: per entry, the byte offset of its column block
	rowPtr         *int32   // quad: CSR row starts into offs/vals; n+1 of them
	n              int64    // quad: rows; dual and wide: slots
	// Per-lane constants; dual and wide: the pair's two, then the same
	// two again for the register's high half (wide broadcasts the first
	// two to all four parts).
	mu, eta, lam [laneCount]float64
	// dual and wide: per slot, the uint16 block indices of its k cells'
	// rows, then of their columns.
	slots *uint16
}

// laneCount is the number of lanes a block interleaves: the four
// float64s of a 256-bit register.
const laneCount = 4

// wideCells is the wide kernel's cells per slot: four two-lane cells
// fill a 512-bit register.
const wideCells = 4

// laneWide selects the AVX-512 path: the pairs train concurrently, each
// in the wide kernel. It follows the CPU probe alone; tests flip it to
// run the AVX path on AVX-512 hosts too.
var laneWide = cpuid.AVX512

// pairFactors is the kernels' fixed latent rank: the assembly unrolls
// exactly six factor updates per entry, matching the runtime's
// Factors=6 default.
const pairFactors = 6

// blockLen is the length in float64s of one interleaved row or column
// block w lanes wide: six factor elements then the bias element, lane
// L's float64 of element e at index we+L. Rows and columns keep factors
// and bias in one block so the kernels reach both through a single
// pointer. The quad and dual kernels use four-lane blocks (a dual pair
// leaves the other two lanes idle in memory), the wide kernel a pair's
// own two-lane blocks.
func blockLen(w int) int { return w * (pairFactors + 1) }

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
// one). On the AVX-512 path four lanes are always two independent
// pairs, which train concurrently on blocks of their own. Otherwise
// lanes with a common prefix share blocks and an instruction stream,
// and four lanes without one are two concurrent pairs too. A pair with
// a common prefix shares blocks; one without trains per surface.
func trainLanes(st []*trainState) {
	four := len(st) == laneCount
	n := 0
	if !four || !laneWide {
		n = lanePrefix(st)
	}
	switch {
	case n > 0:
		trainShared(st, n)
	case four:
		par.For(2, 0, func(_, h int) { trainLanes(st[2*h : 2*h+2]) })
	default:
		for _, s := range st {
			if s != nil {
				s.trainSerial()
			}
		}
	}
}

// lanePrefix returns how many leading entries of the prepared
// reconstructions a SIMD kernel may sweep in lockstep, 0 when they
// cannot share a stream. The lanes must agree on everything the shared
// instruction stream fixes: column count (the interleaved column
// blocks), the kernels' rank and the sweep count.
// The slot kernels address blocks by uint16 index, the spare row and
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
// its own common prefix; of two lanes a slot kernel — wide on the
// AVX-512 path, dual otherwise — covers the prefix; then each lane's
// remaining entries train scalar. All row and column state lives
// interleaved for the whole run, so a region ending mid-row hands the
// row on with nothing to copy. Region boundaries are barriers, so each
// lane's per-epoch update order is trainSerial's up to the reordering
// of independent cells inside a slot region (see schedule), and every
// float64 it produces is bit-identical to the serial sweep.
func trainShared(st []*trainState, n int) {
	k, w := 2, laneCount // a pair's cells per slot, lanes per block
	if laneWide {
		k, w = wideCells, 2
	}
	rows := 0
	for _, s := range st {
		rows = max(rows, s.m.Rows)
	}
	// One more block each side: the zeroed row and column block an
	// unfilled cell of a slot trains against (see newSlotRun).
	rowP := make([]float64, (rows+1)*blockLen(w))
	colP := make([]float64, (st[0].m.Cols+1)*blockLen(w))
	for l, s := range st {
		packLane(rowP, w, l, s.q, s.rowBias)
		packLane(colP, w, l, s.pc, s.colBias)
	}

	var runs []laneRun
	var tail [laneCount]int // per lane: where its scalar tail starts
	if len(st) == laneCount {
		runs = append(runs, newQuadRun(st, n, rowP, colP))
		for l := 0; l < laneCount; l += 2 {
			tail[l], tail[l+1] = n, n
			if np := lanePrefix(st[l : l+2]); np > n {
				runs = append(runs, newSlotRun(st[l:l+2], l, n, np, k, rowP, colP))
				tail[l], tail[l+1] = np, np
			}
		}
	} else {
		runs = append(runs, newSlotRun(st, 0, 0, n, k, rowP, colP))
		tail[0], tail[1] = n, n
	}

	for iter := 0; iter < st[0].p.MaxIter; iter++ {
		for i := range runs {
			runs[i].epoch()
		}
		for l, s := range st {
			laneTailEpoch(s.entries[tail[l]:], w, l, s, rowP, colP)
		}
	}

	for l, s := range st {
		unpackLane(rowP, w, l, s.q, s.rowBias)
		unpackLane(colP, w, l, s.pc, s.colBias)
	}
}

// laneRun is one kernel's share of an epoch: the quad kernel's run of
// consecutive entries common to all four lanes, or one pair's
// scheduled region for a slot kernel.
type laneRun struct {
	args   laneArgs
	kernel func(*laneArgs)
}

func (r *laneRun) epoch() { r.kernel(&r.args) }

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
		offs[t] = uint32(int(e.j) * blockLen(laneCount) * 8)
		for l, s := range st {
			vals[laneCount*t+l] = s.entries[t].v
		}
	}
	for r := 0; r < nrows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	run := laneRun{kernel: quadEpoch6, args: laneArgs{
		row: &rowP[first*blockLen(laneCount)], col: &colP[0],
		vals: &vals[0], offs: &offs[0], rowPtr: &rowPtr[0],
		n: int64(nrows),
	}}
	for l, s := range st {
		run.args.mu[l], run.args.eta[l], run.args.lam[l] = s.mu, learningRate, s.p.Reg
	}
	return run
}

// newSlotRun schedules entries [from, to) of the pair st for a slot
// kernel, k cells to a slot: the dual kernel (k = 2) on four-lane
// blocks, where the pair occupies lanes lane0 and lane0+1, or the wide
// kernel (k = wideCells) on the pair's own two-lane blocks. Cell c of a
// slot fills the register's c-th 16-byte part. A cell no entry fills
// aims at the spare last row and column blocks, with the values μ:
// that cell's error is exactly zero, so the spare blocks stay zero and
// nothing reads them.
func newSlotRun(st []*trainState, lane0, from, to, k int, rowP, colP []float64) laneRun {
	w, kernel := laneCount, dualEpoch6
	if k == wideCells {
		w, kernel = 2, wideEpoch6
	}
	rows, cols := len(rowP)/blockLen(w)-1, len(colP)/blockLen(w)-1 // the spares
	ents := st[0].entries[from:to]
	nslots := schedule(ents, cols, k, nil)
	// Cells are counted across slots, slot s holding cells k·s…k·s+k−1.
	// A slot's indices are its cells' rows, then their columns: cell c's
	// row index sits at idx[at(c)], its column index k further on, and
	// its two lanes' values at vals[2c] and vals[2c+1].
	at := func(c int) int { return c + c/k*k }
	idx := make([]uint16, 2*k*nslots)
	vals := make([]float64, 2*k*nslots)
	for c := range k * nslots {
		idx[at(c)], idx[at(c)+k] = uint16(rows), uint16(cols)
		vals[2*c], vals[2*c+1] = st[0].mu, st[1].mu
	}
	c := 0 // the next cell to fill
	schedule(ents, cols, k, func(s, t int) {
		c = max(c, k*s) // a slot's first entry takes its first cell
		e := ents[t]
		idx[at(c)], idx[at(c)+k] = uint16(e.i), uint16(e.j)
		vals[2*c], vals[2*c+1] = e.v, st[1].entries[from+t].v
		c++
	})
	run := laneRun{kernel: kernel, args: laneArgs{
		row: &rowP[lane0], col: &colP[lane0],
		vals: &vals[0], slots: &idx[0],
		n: int64(nslots),
	}}
	for l, s := range st {
		for h := 0; h < laneCount; h += 2 {
			run.args.mu[h+l], run.args.eta[h+l], run.args.lam[h+l] = s.mu, learningRate, s.p.Reg
		}
	}
	return run
}

// schedule packs a row-major run of entries into slots of at most k
// for a slot kernel and returns the slot count. With fill non-nil it
// calls fill(s, t) for each entry t of slot s, slot after slot and
// each slot's entries in row-major order. Slot s takes the k earliest
// entries, in row-major order, whose predecessors inside the run — the
// previous entry of its row and the previous entry of its column — sit
// in earlier slots. No two such entries share a row or a column (the
// later one's predecessor would be the earlier), and every row's and
// column's entries keep their order, which is all the serial sweep's
// bits depend on. Its scratch is a bit per cell of the run's rows and
// an int32 per row and column, not a word per entry, so a caller can
// run it twice — once to size its slots, once to fill them.
func schedule(ents []obs, cols, k int, fill func(s, t int)) int {
	first := int(ents[0].i)
	nrows := int(ents[len(ents)-1].i) - first + 1
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
	for t := len(ents) - 1; t >= 0; t-- {
		r, j := int(ents[t].i)-first, int(ents[t].j)
		next[r], colNext[j] = int32(t), int32(r)
		if end[r] == 0 {
			end[r] = int32(t) + 1
		}
		b := j*nrows + r
		in[b/64] |= 1 << (b % 64)
	}
	nslots := 0
	lo := 0 // rows before lo are placed
	for placed := 0; placed < len(ents); nslots++ {
		for next[lo] == end[lo] {
			lo++
		}
		var pick [wideCells]int
		n := 0
		for r := lo; r < nrows && n < k; r++ {
			if t := next[r]; t != end[r] && colNext[ents[t].j] == int32(r) {
				pick[n] = r
				n++
			}
		}
		for _, r := range pick[:n] {
			t := next[r]
			if fill != nil {
				fill(nslots, int(t))
			}
			next[r]++
			j := int(ents[t].j)
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

// packLane copies one lane's factor matrix and bias vector into the
// interleaved blocks, w lanes wide; unpackLane copies them back out.
func packLane(blocks []float64, w, lane int, fac, bias []float64) {
	const f = pairFactors
	for e, b := range bias {
		blk := blocks[e*blockLen(w)+lane:]
		for k := 0; k < f; k++ {
			blk[w*k] = fac[e*f+k]
		}
		blk[w*f] = b
	}
}

func unpackLane(blocks []float64, w, lane int, fac, bias []float64) {
	const f = pairFactors
	for e := range bias {
		blk := blocks[e*blockLen(w)+lane:]
		for k := 0; k < f; k++ {
			fac[e*f+k] = blk[w*k]
		}
		bias[e] = blk[w*f]
	}
}

// laneTailEpoch sweeps one lane's post-kernel entries once against the
// interleaved state, w lanes wide. The arithmetic matches trainSerial
// statement for statement — same association, same old-value capture —
// so the tail is bit-identical to the serial sweep too.
func laneTailEpoch(tail []obs, w, lane int, st *trainState, rowP, colP []float64) {
	const f = pairFactors
	eta, lam := learningRate, st.p.Reg
	mu := st.mu
	blk := blockLen(w)
	for _, e := range tail {
		// Lane's element k of the block at index wk, the bias at wf.
		i, j := int(e.i), int(e.j)
		ri := rowP[i*blk+lane : (i+1)*blk]
		cj := colP[j*blk+lane : (j+1)*blk]
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
